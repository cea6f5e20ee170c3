#include "dataframe/csv.h"

#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>

namespace hypdb {
namespace {

// True for the bytes that end an unquoted run: a field separator, a line
// ending, or a quote.
bool IsSpecial(char c) {
  return c == ',' || c == '"' || c == '\n' || c == '\r';
}

// Reads the field at `*pos` and advances `*pos` past what ends it: a comma,
// the record's line ending ("\n", "\r\n" or a lone "\r"), or the end of
// `text`. Sets `*last` unless a comma ended it. A field without a quote is
// returned as a view into `text`. A field with a quote anywhere in it is
// unescaped into `*buffer`, which the next call reuses: each quote opens
// or closes a quoted run, inside which commas and line breaks are literal
// and "" is one quote (RFC 4180).
std::string_view NextField(std::string_view text, size_t* pos,
                           std::string* buffer, bool* last) {
  const size_t n = text.size();
  const size_t start = *pos;
  size_t i = start;
  while (i < n && !IsSpecial(text[i])) ++i;
  std::string_view field = text.substr(start, i - start);
  if (i < n && text[i] == '"') {
    buffer->assign(field);
    bool in_quotes = false;
    for (; i < n; ++i) {
      const char c = text[i];
      if (in_quotes) {
        if (c != '"') {
          *buffer += c;
        } else if (i + 1 < n && text[i + 1] == '"') {
          *buffer += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else if (c == '"') {
        in_quotes = true;
      } else if (IsSpecial(c)) {
        break;
      } else {
        *buffer += c;
      }
    }
    field = *buffer;
  }
  *last = i == n || text[i] != ',';
  if (i < n) {
    if (text[i] == '\r' && i + 1 < n && text[i + 1] == '\n') ++i;
    ++i;
  }
  *pos = i;
  return field;
}

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

void AppendField(const std::string& s, std::string* out) {
  if (!NeedsQuoting(s)) {
    *out += s;
    return;
  }
  *out += '"';
  for (char c : s) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

}  // namespace

StatusOr<Table> ParseCsv(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty CSV input");
  size_t pos = 0;
  std::string buffer;
  bool last = false;
  std::vector<ColumnBuilder> builders;
  while (!last) {
    builders.emplace_back(std::string(NextField(text, &pos, &buffer, &last)));
  }

  int64_t line = 1;
  while (pos < text.size()) {
    ++line;
    std::string_view field = NextField(text, &pos, &buffer, &last);
    if (last && field.empty()) continue;  // blank line
    builders[0].Append(field);
    size_t fields = 1;
    for (; !last; ++fields) {
      field = NextField(text, &pos, &buffer, &last);
      if (fields < builders.size()) builders[fields].Append(field);
    }
    if (fields != builders.size()) {
      return Status::InvalidArgument(
          "CSV record " + std::to_string(line) + " has " +
          std::to_string(fields) + " fields, header has " +
          std::to_string(builders.size()));
    }
  }

  Table table;
  for (auto& b : builders) {
    HYPDB_RETURN_IF_ERROR(table.AddColumn(b.Finish()));
  }
  return table;
}

StatusOr<Table> ReadCsv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  // file_size fails for a directory, where an open stream's size would
  // read as garbage.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    return Status::IoError("cannot size " + path + ": " + error.message());
  }
  std::string text(size, '\0');
  if (!in.read(text.data(), static_cast<std::streamsize>(size))) {
    return Status::IoError("cannot read " + path);
  }
  return ParseCsv(text);
}

std::string ToCsv(const Table& table) {
  std::string out;
  for (int c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) out += ',';
    AppendField(table.column(c).name(), &out);
  }
  out += '\n';
  for (int64_t r = 0; r < table.NumRows(); ++r) {
    for (int c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) out += ',';
      AppendField(table.column(c).LabelAt(r), &out);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ToCsv(table);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

}  // namespace hypdb
