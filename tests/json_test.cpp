// JSON layer tests: strict-parser acceptance/rejection, escape and
// surrogate handling, nesting depth limits, random-value round-trip
// property tests, and the golden-path invariant that the wire codec's
// "digest" member is byte-identical to report_digest.h for a fixed seed.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/hypdb.h"
#include "datagen/berkeley_data.h"
#include "net/json.h"
#include "service/report_digest.h"
#include "util/rng.h"

namespace hypdb {
namespace net {
namespace {

StatusOr<JsonValue> Parse(const std::string& text) { return ParseJson(text); }

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_TRUE(Parse("true")->bool_value());
  EXPECT_FALSE(Parse("false")->bool_value());
  EXPECT_EQ(Parse("123")->int_value(), 123);
  EXPECT_EQ(Parse("-7")->int_value(), -7);
  EXPECT_EQ(Parse("-0")->int_value(), 0);
  EXPECT_EQ(Parse("9223372036854775807")->int_value(), INT64_MAX);
  EXPECT_EQ(Parse("  \"hi\"  ")->string_value(), "hi");
  EXPECT_DOUBLE_EQ(Parse("1e3")->number_value(), 1000.0);
  EXPECT_DOUBLE_EQ(Parse("0.5")->number_value(), 0.5);
  EXPECT_DOUBLE_EQ(Parse("-2.25E-2")->number_value(), -0.0225);
  // Ints wider than int64 degrade to double instead of failing.
  auto huge = Parse("123456789012345678901234567890");
  ASSERT_TRUE(huge.ok());
  EXPECT_FALSE(huge->is_int());
  EXPECT_GT(huge->number_value(), 1e29);
}

TEST(JsonParseTest, Containers) {
  auto v = Parse(R"({"a": [1, 2.5, "x", null, true], "b": {"c": []}})");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 5u);
  EXPECT_EQ(a->array()[0].int_value(), 1);
  EXPECT_EQ(a->array()[2].string_value(), "x");
  ASSERT_NE(v->Find("b"), nullptr);
  ASSERT_NE(v->Find("b")->Find("c"), nullptr);
  EXPECT_TRUE(v->Find("b")->Find("c")->array().empty());
  EXPECT_EQ(v->Find("missing"), nullptr);

  // Duplicate keys: last one wins (matching Set()).
  auto dup = Parse(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->Find("k")->int_value(), 2);
  EXPECT_EQ(dup->members().size(), 1u);
}

TEST(JsonParseTest, EscapesAndUnicode) {
  auto v = Parse(R"("a\n\t\"\\\/\b\f\r z")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "a\n\t\"\\/\b\f\r z");

  // BMP escape, 2-byte and 3-byte UTF-8, and a surrogate pair.
  EXPECT_EQ(Parse(R"("\u0041")")->string_value(), "A");
  EXPECT_EQ(Parse(R"("\u00e9")")->string_value(), "\xC3\xA9");
  EXPECT_EQ(Parse(R"("\u20ac")")->string_value(), "\xE2\x82\xAC");
  EXPECT_EQ(Parse(R"("\ud83d\ude00")")->string_value(),
            "\xF0\x9F\x98\x80");  // U+1F600

  // Raw UTF-8 passes through both directions.
  const std::string raw = "caf\xC3\xA9 \xE2\x82\xAC";
  auto round = Parse(SerializeJson(JsonValue::Str(raw)));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->string_value(), raw);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  const std::vector<std::string> malformed = {
      "", "   ", "{", "[", "{]", "[}", "[1,]", "{\"a\":}", "{\"a\"}",
      "{\"a\" 1}", "{a: 1}", "tru", "truex", "nul", "01", "1.", ".5", "+1",
      "-", "1e", "1e+", "--1", "1 2", "[1] x", "\"abc", "\"a\\x\"",
      "\"\\u12\"", "\"\\u12g4\"", "\"\\ud800\"",          // lone high
      "\"\\udc00\"", "\"\\ud800\\u0041\"",                // bad pair
      "nan", "NaN", "Infinity", "-Infinity", "'single'",
      std::string("\"a\nb\""),                            // raw newline
      std::string("\"a\x01z\""),                          // raw control
      "{\"a\":1,}", "[,1]", "{,}",
  };
  for (const std::string& text : malformed) {
    auto v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(JsonParseTest, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  for (int i = 0; i < 80; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok());  // default limit is 64
  EXPECT_TRUE(ParseJson(deep, {.max_depth = 100}).ok());

  std::string shallow;
  for (int i = 0; i < 60; ++i) shallow += '[';
  for (int i = 0; i < 60; ++i) shallow += ']';
  EXPECT_TRUE(ParseJson(shallow).ok());

  // Objects count against the same limit.
  std::string nested_obj = "1";
  for (int i = 0; i < 80; ++i) nested_obj = "{\"k\":" + nested_obj + "}";
  EXPECT_FALSE(ParseJson(nested_obj).ok());
}

// Random JSON values round-trip: parse(serialize(v)) == v, and
// serialization is a fixed point (serialize(parse(s)) == s).
JsonValue RandomValue(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.NextBounded(depth >= 4 ? 5 : 7));
  switch (kind) {
    case 0: return JsonValue();
    case 1: return JsonValue::Bool(rng.Bernoulli(0.5));
    case 2: return JsonValue::Int(rng.UniformInt(-1000000, 1000000));
    case 3: {
      double v = (rng.UniformDouble() - 0.5) * 1e6;
      if (rng.Bernoulli(0.2)) v = v * 1e-12;  // exercise exponents
      return JsonValue::Double(v);
    }
    case 4: {
      std::string s;
      const int len = static_cast<int>(rng.NextBounded(12));
      for (int i = 0; i < len; ++i) {
        // ASCII incl. quotes/backslashes/control chars; multi-byte UTF-8
        // is covered separately above.
        s.push_back(static_cast<char>(rng.NextBounded(127) + 1));
      }
      return JsonValue::Str(s);
    }
    case 5: {
      JsonValue arr = JsonValue::MakeArray();
      const int len = static_cast<int>(rng.NextBounded(5));
      for (int i = 0; i < len; ++i) {
        arr.Append(RandomValue(rng, depth + 1));
      }
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::MakeObject();
      const int len = static_cast<int>(rng.NextBounded(5));
      for (int i = 0; i < len; ++i) {
        obj.Set("k" + std::to_string(i), RandomValue(rng, depth + 1));
      }
      return obj;
    }
  }
}

TEST(JsonRoundTripTest, RandomValuesSurviveSerializeParse) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 500; ++trial) {
    const JsonValue value = RandomValue(rng, 0);
    const std::string wire = SerializeJson(value);
    auto parsed = ParseJson(wire);
    ASSERT_TRUE(parsed.ok()) << wire << ": " << parsed.status();
    EXPECT_TRUE(*parsed == value) << wire;
    // Serialization is deterministic and a fixed point of the
    // parse-serialize loop.
    EXPECT_EQ(SerializeJson(*parsed), wire);
  }
}

TEST(JsonRoundTripTest, DoublesRoundTripBitExactly) {
  Rng rng(0xD0D0);
  for (int trial = 0; trial < 200; ++trial) {
    const double v = (rng.UniformDouble() - 0.5) *
                     std::pow(10.0, rng.UniformInt(-300, 300));
    auto parsed = ParseJson(SerializeJson(JsonValue::Double(v)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->number_value(), v);
  }
}

// ---- codec tests --------------------------------------------------------

TEST(JsonCodecTest, AnalyzeRequestParsing) {
  HypDbOptions base;
  auto plain = ParseJson(
      R"({"dataset": "b", "sql": "SELECT ..."})");
  ASSERT_TRUE(plain.ok());
  auto wire = AnalyzeRequestFromJson(*plain, base);
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_EQ(wire->request.dataset, "b");
  EXPECT_FALSE(wire->request.options.has_value());
  EXPECT_EQ(wire->submit.deadline_seconds, 0.0);

  auto with_options = ParseJson(
      R"({"dataset": "b", "sql": "q", "deadline_seconds": 1.5,
          "options": {"alpha": 0.05, "discover_mediators": false,
                      "seed": 7}})");
  ASSERT_TRUE(with_options.ok());
  wire = AnalyzeRequestFromJson(*with_options, base);
  ASSERT_TRUE(wire.ok()) << wire.status();
  ASSERT_TRUE(wire->request.options.has_value());
  EXPECT_DOUBLE_EQ(wire->request.options->alpha, 0.05);
  EXPECT_FALSE(wire->request.options->discover_mediators);
  EXPECT_EQ(wire->request.options->seed, 7u);
  // Un-overridden options keep the base defaults.
  EXPECT_EQ(wire->request.options->ci.permutations, base.ci.permutations);
  EXPECT_DOUBLE_EQ(wire->submit.deadline_seconds, 1.5);

  // Strictness: unknown members and mistyped values are rejected.
  for (const char* bad : {
           R"({"sql": "q"})",                             // missing dataset
           R"({"dataset": "b"})",                         // missing sql
           R"({"dataset": "b", "sql": "q", "typo": 1})",  // unknown member
           R"({"dataset": "b", "sql": "q", "options": {"alphaa": 0.1}})",
           // Scan settings are service-wide, not per-request options.
           R"({"dataset": "b", "sql": "q", "options": {"scan_threads": 2}})",
           R"({"dataset": "b", "sql": "q", "options": {"scan_morsel_rows": 64}})",
           R"({"dataset": "b", "sql": "q", "options": {"scan_simd": false}})",
           R"({"dataset": "b", "sql": "q", "options": {"alpha": "x"}})",
           R"({"dataset": 3, "sql": "q"})",
           R"([1])",
       }) {
    auto parsed = ParseJson(bad);
    ASSERT_TRUE(parsed.ok()) << bad;
    EXPECT_FALSE(AnalyzeRequestFromJson(*parsed, base).ok()) << bad;
  }
}

// Per-request options are held to the ranges hypdb_cli enforces on the
// same flags: a value outside them is rejected, never accepted or
// narrowed, and the ends of each range are accepted.
TEST(JsonCodecTest, AnalyzeRequestRejectsOutOfRangeOptions) {
  HypDbOptions base;
  auto request = [](const std::string& options) {
    return ParseJson(R"({"dataset": "b", "sql": "q", "options": )" +
                     options + "}");
  };
  for (const char* bad : {
           R"({"alpha": 2.5})",
           R"({"alpha": -1})",
       }) {
    auto parsed = request(bad);
    ASSERT_TRUE(parsed.ok()) << bad;
    EXPECT_EQ(AnalyzeRequestFromJson(*parsed, base).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  auto ends = request(R"({"alpha": 1})");
  ASSERT_TRUE(ends.ok());
  auto wire = AnalyzeRequestFromJson(*ends, base);
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_EQ(wire->request.options->alpha, 1.0);
  auto zero = request(R"({"alpha": 0})");
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(AnalyzeRequestFromJson(*zero, base).ok());
}

// A negative deadline is rejected rather than read as "no deadline"; 0
// still means no deadline.
TEST(JsonCodecTest, AnalyzeRequestRejectsNegativeDeadline) {
  HypDbOptions base;
  auto negative =
      ParseJson(R"({"dataset": "b", "sql": "q", "deadline_seconds": -0.5})");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(AnalyzeRequestFromJson(*negative, base).status().code(),
            StatusCode::kInvalidArgument);
  auto zero =
      ParseJson(R"({"dataset": "b", "sql": "q", "deadline_seconds": 0})");
  ASSERT_TRUE(zero.ok());
  auto wire = AnalyzeRequestFromJson(*zero, base);
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_EQ(wire->submit.deadline_seconds, 0.0);
}

TEST(JsonCodecTest, RegisterCommandParsing) {
  auto csv = ParseJson(R"({"name": "d", "csv": "/tmp/d.csv"})");
  ASSERT_TRUE(csv.ok());
  auto command = RegisterCommandFromJson(*csv);
  ASSERT_TRUE(command.ok());
  EXPECT_EQ(command->name, "d");
  EXPECT_EQ(command->csv_path, "/tmp/d.csv");

  for (const char* bad : {
           R"({"csv": "/tmp/d.csv"})",                       // no name
           R"({"name": "d"})",                               // no source
           R"({"name": "d", "csv": "x", "generator": "y"})",  // both
           R"({"name": "d", "generator": "x", "typo": 1})",
       }) {
    auto parsed = ParseJson(bad);
    ASSERT_TRUE(parsed.ok()) << bad;
    EXPECT_FALSE(RegisterCommandFromJson(*parsed).ok()) << bad;
  }
}

TEST(JsonCodecTest, StatusRoundTrip) {
  const Status status = Status::DeadlineExceeded("too slow");
  const Status back = StatusFromJson(ErrorToJson(status));
  EXPECT_EQ(back.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(back.message(), "too slow");
}

// The golden invariant of the wire format: the codec's "digest" member
// is byte-identical to CanonicalReportDigest for a fixed seed, and it
// survives a serialize/parse round trip — so a client that checks the
// digest it received checks the exact invariant the service tests check.
TEST(JsonCodecTest, ServiceReportDigestMatchesReportDigest) {
  auto table = GenerateBerkeleyData();
  ASSERT_TRUE(table.ok());
  HypDb db(MakeTable(std::move(*table)), HypDbOptions{});  // fixed seed
  auto report = db.AnalyzeSql(
      "SELECT Gender, avg(Accepted) FROM Berkeley GROUP BY Gender");
  ASSERT_TRUE(report.ok()) << report.status();

  ServiceReport service_report;
  service_report.report = *report;
  service_report.stats.ticket = 42;
  const JsonValue json = ToJson(service_report);

  const JsonValue* digest = json.Find("digest");
  ASSERT_NE(digest, nullptr);
  EXPECT_EQ(digest->string_value(), CanonicalReportDigest(*report));

  const JsonValue* rendered = json.Find("rendered");
  ASSERT_NE(rendered, nullptr);
  EXPECT_EQ(rendered->string_value(), RenderReport(*report));

  auto round = ParseJson(SerializeJson(json));
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->Find("digest")->string_value(),
            CanonicalReportDigest(*report));
  EXPECT_EQ(round->Find("stats")->Find("ticket")->int_value(), 42);
  EXPECT_TRUE(*round == json);
}

}  // namespace
}  // namespace net
}  // namespace hypdb
