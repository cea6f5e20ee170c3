// Mixed-radix packing of categorical tuples into uint64 keys.
//
// Grouping, contingency tables and OLAP-cube cells all reduce to counting
// occurrences of attribute-value tuples. A TupleCodec maps the tuple of
// codes of a fixed column list to a single uint64 (and back), so group-by
// becomes a hash aggregation over scalar keys.

#ifndef HYPDB_DATAFRAME_TUPLE_CODEC_H_
#define HYPDB_DATAFRAME_TUPLE_CODEC_H_

#include <cstdint>
#include <vector>

#include "dataframe/table.h"
#include "dataframe/view.h"
#include "util/statusor.h"

namespace hypdb {

class TableView;

/// Encodes/decodes tuples over a fixed list of columns. The key space is
/// the mixed-radix number with per-column cardinalities as digits; its size
/// (`Domain()`) is the product of cardinalities and must fit in int64.
class TupleCodec {
 public:
  TupleCodec() = default;

  /// Builds a codec for `cols`, indices into a schema whose column c has
  /// `cardinalities[c]` codes. Fails with OutOfRange for an index outside
  /// the schema or a domain product that would overflow 2^62 (keys must
  /// remain exact), and with InvalidArgument for an empty dictionary.
  static StatusOr<TupleCodec> Create(const std::vector<int32_t>& cardinalities,
                                     const std::vector<int>& cols);

  /// The same, with the cardinalities of `table`'s dictionaries.
  static StatusOr<TupleCodec> Create(const Table& table,
                                     const std::vector<int>& cols);

  /// Key for the tuple at view row `i`.
  uint64_t Encode(const TableView& view, int64_t i) const {
    uint64_t key = 0;
    for (size_t j = 0; j < cols_.size(); ++j) {
      key += static_cast<uint64_t>(view.CodeAt(i, cols_[j])) * strides_[j];
    }
    return key;
  }

  /// Key from raw codes (one per codec column, in codec order).
  uint64_t EncodeCodes(const std::vector<int32_t>& codes) const {
    uint64_t key = 0;
    for (size_t j = 0; j < cols_.size(); ++j) {
      key += static_cast<uint64_t>(codes[j]) * strides_[j];
    }
    return key;
  }

  /// Inverse of EncodeCodes.
  std::vector<int32_t> Decode(uint64_t key) const {
    std::vector<int32_t> codes(cols_.size());
    for (size_t j = 0; j < cols_.size(); ++j) {
      codes[j] = static_cast<int32_t>((key / strides_[j]) % cards_[j]);
    }
    return codes;
  }

  /// Code of the j-th codec column within `key`.
  int32_t DecodeAt(uint64_t key, int j) const {
    return static_cast<int32_t>((key / strides_[j]) % cards_[j]);
  }

  /// A codec over the subset of this codec's columns at `positions`
  /// (indices into cols()). Keys of the projected codec address the
  /// marginal domain.
  TupleCodec Project(const std::vector<int>& positions) const;

  const std::vector<int>& cols() const { return cols_; }
  const std::vector<int32_t>& cardinalities() const { return cards_; }
  /// Per-column mixed-radix strides (for raw-pointer scan kernels).
  const std::vector<uint64_t>& strides() const { return strides_; }

  /// Product of cardinalities (1 for an empty column list).
  uint64_t Domain() const { return domain_; }

  // --- bit-packed keys (scan-kernel fast path) -----------------------------
  //
  // Padding each column's radix to a power of two turns the mixed-radix
  // dot product into shifts and ors: packed = Σ code_j << shift_j. Shift
  // order matches stride order (cols()[0] least significant), so packed
  // keys enumerate tuples in the same lexicographic order as mixed-radix
  // keys — a dense accumulator indexed by packed key drains in sorted
  // mixed-radix key order with no extra sort.

  /// Per-column bit widths: the bits addressing each codec column's
  /// code space [0, cardinality), 0 for a constant column.
  const std::vector<int>& bit_widths() const { return bit_widths_; }
  /// Per-column left-shift amounts for packed keys.
  const std::vector<int>& shifts() const { return shifts_; }
  /// Total packed width in bits (sum of bit_widths).
  int packed_bits() const { return packed_bits_; }

  /// True when packed keys fit the kernel key space (< 2^62, same bound
  /// as mixed-radix keys so the hash sentinel stays free).
  bool CanBitPack() const { return packed_bits_ <= 62; }

  /// Size of the padded (power-of-two-radix) key space, 2^packed_bits.
  /// Only meaningful when CanBitPack(). Slots whose digits fall outside a
  /// column's cardinality are never produced by any row.
  uint64_t PackedDomain() const { return uint64_t{1} << packed_bits_; }

  /// Converts a packed key back to the canonical mixed-radix key.
  uint64_t PackedToKey(uint64_t packed) const {
    uint64_t key = 0;
    for (size_t j = 0; j < cols_.size(); ++j) {
      const uint64_t digit =
          (packed >> shifts_[j]) & ((uint64_t{1} << bit_widths_[j]) - 1);
      key += digit * strides_[j];
    }
    return key;
  }

 private:
  std::vector<int> cols_;
  std::vector<int32_t> cards_;
  std::vector<uint64_t> strides_;
  std::vector<int> bit_widths_;
  std::vector<int> shifts_;
  int packed_bits_ = 0;
  uint64_t domain_ = 1;
};

}  // namespace hypdb

#endif  // HYPDB_DATAFRAME_TUPLE_CODEC_H_
