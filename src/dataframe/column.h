// Dictionary-encoded categorical column.
//
// HypDB operates on discrete domains (paper Sec. 2): every attribute is
// categorical. A column stores one int32 code per row plus a dictionary of
// string labels; label order defines the code space [0, Cardinality()).

#ifndef HYPDB_DATAFRAME_COLUMN_H_
#define HYPDB_DATAFRAME_COLUMN_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace hypdb {

/// Bidirectional string <-> code mapping for one column, held as a handle:
/// a label store shared by every copy plus this handle's size. Copying is
/// O(1), and a copy sees exactly the prefix [0, size()) it was copied at,
/// however much the store grows afterwards (the column store's appends
/// grow it while its snapshots keep reading).
///
///  * Label, NumericValue, IsNumericLike and size take no lock: labels and
///    their parsed values live in blocks that never move, and a slot below
///    a handle's size was written before that handle could see it.
///  * Find takes the store's lock in shared mode once the store is shared,
///    and hides codes at or past the handle's size.
///  * GetOrAdd takes the lock exclusively once the store is shared. On a
///    handle that is no longer the store's newest, adding a label first
///    copies the prefix into a fresh store, so copies keep value semantics.
///  * A dictionary never copied (a CSV, generator or ColumnBuilder build)
///    takes no lock at all.
class Dictionary {
 public:
  Dictionary() = default;
  Dictionary(const Dictionary& other);
  Dictionary& operator=(const Dictionary& other);
  Dictionary(Dictionary&& other) noexcept;
  Dictionary& operator=(Dictionary&& other) noexcept;

  /// Returns the code for `label`, inserting it if new.
  int32_t GetOrAdd(const std::string& label);

  /// Returns the code for `label` or -1 if absent from this prefix.
  int32_t Find(const std::string& label) const;

  const std::string& Label(int32_t code) const {
    return store_->At(code).label;
  }

  /// The label of `code` parsed as a double; NaN if it does not parse.
  double NumericValue(int32_t code) const { return store_->At(code).value; }

  /// True if every label of this prefix parses as a double.
  bool IsNumericLike() const {
    return store_ == nullptr ||
           store_->first_non_numeric.load(std::memory_order_relaxed) >= size_;
  }

  int32_t size() const { return size_; }

 private:
  // Append-only storage for one column's labels. Slot `code` sits in
  // block b = floor(log2(code / kFirstBlock + 1)), whose capacity is
  // kFirstBlock << b; a block is allocated when its first label arrives
  // and its slots are constructed one by one as labels do.
  class Store {
   public:
    struct Slot {
      std::string label;
      double value;  // NaN marks a label that does not parse
    };

    Store() = default;
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;
    ~Store();

    const Slot& At(int32_t code) const {
      const uint32_t pos = static_cast<uint32_t>(code) + kFirstBlock;
      const int block = BlockOf(pos);
      return blocks_[block][pos - (kFirstBlock << block)];
    }

    /// Code of `label`, or -1. The caller holds `mu` when `shared`.
    int32_t Lookup(const std::string& label) const;

    /// Appends a slot and returns its code. The caller holds `mu`
    /// exclusively when `shared`.
    int32_t Push(std::string label, double value);

    int32_t size() const { return size_; }

    /// Set once a second handle exists; from then on Find and GetOrAdd
    /// lock. Never cleared.
    std::atomic<bool> shared{false};
    /// Lowest code whose value is NaN; written once.
    std::atomic<int32_t> first_non_numeric{
        std::numeric_limits<int32_t>::max()};
    /// Guards index_ and size_ while `shared`.
    mutable std::shared_mutex mu;

   private:
    static constexpr int kFirstBlockBits = 4;
    static constexpr uint32_t kFirstBlock = uint32_t{1} << kFirstBlockBits;
    // Enough blocks for every non-negative int32 code.
    static constexpr int kMaxBlocks = 32 - kFirstBlockBits;

    // The block of slot position `pos` (a code plus kFirstBlock).
    // `| kFirstBlock` changes nothing for a code >= 0, but it shows the
    // compiler that the index is never negative (without it g++ warns
    // -Warray-bounds at -O2 under the sanitizers).
    static int BlockOf(uint32_t pos) {
      return std::bit_width(pos | kFirstBlock) - 1 - kFirstBlockBits;
    }

    std::array<Slot*, kMaxBlocks> blocks_{};
    int32_t size_ = 0;
    // Keys view the labels in blocks_, which never move.
    std::unordered_map<std::string_view, int32_t> index_;
  };

  void MarkShared() const;

  std::shared_ptr<Store> store_;
  int32_t size_ = 0;
};

/// A named categorical column: a dictionary plus a handle on a shared,
/// read-only code array and its row count, the way a Dictionary is a
/// handle on a shared label store. Copying a column shares its codes and
/// its dictionary's labels, so a snapshot of the column store's columns
/// copies no code (storage/chunked_table.h). Immutable once built, so
/// concurrent readers (the parallel scan kernel) need no locking. The
/// parsed numeric values live beside the labels in the dictionary,
/// parsed once when each label is added.
class Column {
 public:
  Column() = default;
  /// Adopts `codes` without copying them.
  Column(std::string name, Dictionary dict, std::vector<int32_t> codes);
  /// A handle on the first `num_rows` codes of `codes`, which every copy
  /// shares and none writes.
  Column(std::string name, Dictionary dict,
         std::shared_ptr<const int32_t[]> codes, int64_t num_rows);

  const std::string& name() const { return name_; }
  const Dictionary& dict() const { return dict_; }
  std::span<const int32_t> codes() const {
    return {codes_.get(), static_cast<size_t>(num_rows_)};
  }

  int64_t NumRows() const { return num_rows_; }
  int32_t Cardinality() const { return dict_.size(); }

  int32_t CodeAt(int64_t row) const { return codes_[row]; }
  const std::string& LabelAt(int64_t row) const {
    return dict_.Label(codes_[row]);
  }

  /// Numeric interpretation of code `code`: the label parsed as a double.
  /// Used by avg() aggregation (outcomes are 0/1 per the paper). Labels
  /// that do not parse yield an error.
  StatusOr<double> NumericValue(int32_t code) const;

  /// True if every label parses as a double. O(1).
  bool IsNumericLike() const { return dict_.IsNumericLike(); }

 private:
  std::string name_;
  Dictionary dict_;
  std::shared_ptr<const int32_t[]> codes_;
  int64_t num_rows_ = 0;
};

/// Incrementally builds a column from string values or raw codes.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(std::string name) : name_(std::move(name)) {}

  void Append(const std::string& label) {
    codes_.push_back(dict_.GetOrAdd(label));
  }

  /// Appends a code for a label previously registered via RegisterLabel.
  void AppendCode(int32_t code) { codes_.push_back(code); }

  /// Pre-registers a label (useful to pin code order, e.g. "0" -> 0).
  int32_t RegisterLabel(const std::string& label) {
    return dict_.GetOrAdd(label);
  }

  Column Finish() {
    return Column(std::move(name_), std::move(dict_), std::move(codes_));
  }

 private:
  std::string name_;
  Dictionary dict_;
  std::vector<int32_t> codes_;
};

}  // namespace hypdb

#endif  // HYPDB_DATAFRAME_COLUMN_H_
