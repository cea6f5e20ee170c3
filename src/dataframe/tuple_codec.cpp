#include "dataframe/tuple_codec.h"

namespace hypdb {
namespace {

// Bits needed to address [0, card) — the packed width of one column.
int BitsFor(int32_t card) {
  int bits = 0;
  for (uint32_t span = card > 0 ? static_cast<uint32_t>(card) - 1 : 0;
       span != 0; span >>= 1) {
    ++bits;
  }
  return bits;
}

}  // namespace

StatusOr<TupleCodec> TupleCodec::Create(
    const std::vector<int32_t>& cardinalities, const std::vector<int>& cols) {
  TupleCodec codec;
  codec.cols_ = cols;
  codec.cards_.reserve(cols.size());
  codec.strides_.reserve(cols.size());
  constexpr uint64_t kMaxDomain = 1ull << 62;
  uint64_t stride = 1;
  for (int col : cols) {
    if (col < 0 || col >= static_cast<int>(cardinalities.size())) {
      return Status::OutOfRange("column index " + std::to_string(col) +
                                " out of range");
    }
    const int32_t card = cardinalities[col];
    if (card <= 0) {
      return Status::InvalidArgument("column index " + std::to_string(col) +
                                     " has empty dictionary");
    }
    codec.cards_.push_back(card);
    codec.strides_.push_back(stride);
    codec.bit_widths_.push_back(BitsFor(card));
    codec.shifts_.push_back(codec.packed_bits_);
    codec.packed_bits_ += codec.bit_widths_.back();
    if (stride > kMaxDomain / static_cast<uint64_t>(card)) {
      return Status::OutOfRange(
          "tuple domain overflows: product of cardinalities exceeds 2^62");
    }
    stride *= static_cast<uint64_t>(card);
  }
  codec.domain_ = stride;
  return codec;
}

StatusOr<TupleCodec> TupleCodec::Create(const Table& table,
                                        const std::vector<int>& cols) {
  std::vector<int32_t> cardinalities(table.NumColumns());
  for (int c = 0; c < table.NumColumns(); ++c) {
    cardinalities[c] = table.column(c).Cardinality();
  }
  return Create(cardinalities, cols);
}

TupleCodec TupleCodec::Project(const std::vector<int>& positions) const {
  TupleCodec out;
  uint64_t stride = 1;
  for (int p : positions) {
    out.cols_.push_back(cols_[p]);
    out.cards_.push_back(cards_[p]);
    out.strides_.push_back(stride);
    out.bit_widths_.push_back(BitsFor(cards_[p]));
    out.shifts_.push_back(out.packed_bits_);
    out.packed_bits_ += out.bit_widths_.back();
    stride *= static_cast<uint64_t>(cards_[p]);
  }
  out.domain_ = stride;
  return out;
}

}  // namespace hypdb
