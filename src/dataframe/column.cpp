#include "dataframe/column.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <new>
#include <utility>

namespace hypdb {
namespace {

// The label parsed as a double, or NaN when it is not a number.
double ParseNumeric(const std::string& label) {
  char* end = nullptr;
  const double v = std::strtod(label.c_str(), &end);
  const bool parsed = end != label.c_str() && *end == '\0' && !label.empty();
  return parsed ? v : std::nan("");
}

// A label's index hash: std::hash folded to 32 bits, so that an index
// entry (hash, code) takes 8 bytes.
uint32_t IndexHash(std::string_view label) {
  const size_t h = std::hash<std::string_view>{}(label);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace

Dictionary::Store::~Store() {
  for (int32_t code = 0; code < size_; ++code) At(code).~Slot();
  for (int b = 0; b < kMaxBlocks; ++b) {
    if (blocks_[b] != nullptr) ::operator delete(blocks_[b]);
  }
}

int32_t Dictionary::Store::Lookup(std::string_view label,
                                  uint32_t hash) const {
  if (index_.empty()) return -1;
  const size_t mask = index_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Entry& e = index_[i];
    if (e.code < 0) return -1;
    if (e.hash == hash && At(e.code).label == label) return e.code;
  }
}

void Dictionary::Store::GrowIndex() {
  std::vector<Entry> grown(std::max<size_t>(16, 2 * index_.size()),
                           Entry{0, -1});
  const size_t mask = grown.size() - 1;
  for (const Entry& e : index_) {
    if (e.code < 0) continue;
    size_t i = e.hash & mask;
    while (grown[i].code >= 0) i = (i + 1) & mask;
    grown[i] = e;
  }
  index_ = std::move(grown);
}

int32_t Dictionary::Store::Push(std::string label, uint32_t hash,
                                double value) {
  const int32_t code = size_;
  const uint32_t pos = static_cast<uint32_t>(code) + kFirstBlock;
  const int block = BlockOf(pos);
  if (blocks_[block] == nullptr) {
    blocks_[block] = static_cast<Slot*>(
        ::operator new(sizeof(Slot) * (size_t{kFirstBlock} << block)));
  }
  new (&blocks_[block][pos - (kFirstBlock << block)])
      Slot{std::move(label), value};
  if (2 * (static_cast<size_t>(code) + 1) > index_.size()) GrowIndex();
  const size_t mask = index_.size() - 1;
  size_t i = hash & mask;
  while (index_[i].code >= 0) i = (i + 1) & mask;
  index_[i] = Entry{hash, code};
  if (std::isnan(value) &&
      first_non_numeric.load(std::memory_order_relaxed) > code) {
    first_non_numeric.store(code, std::memory_order_relaxed);
  }
  ++size_;
  return code;
}

Dictionary::Dictionary(const Dictionary& other)
    : store_(other.store_), size_(other.size_) {
  MarkShared();
}

Dictionary& Dictionary::operator=(const Dictionary& other) {
  store_ = other.store_;
  size_ = other.size_;
  MarkShared();
  return *this;
}

Dictionary::Dictionary(Dictionary&& other) noexcept
    : store_(std::move(other.store_)), size_(std::exchange(other.size_, 0)) {}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  store_ = std::move(other.store_);
  size_ = std::exchange(other.size_, 0);
  return *this;
}

void Dictionary::MarkShared() const {
  if (store_ != nullptr) store_->shared.store(true, std::memory_order_relaxed);
}

int32_t Dictionary::GetOrAdd(std::string_view label) {
  if (store_ == nullptr) store_ = std::make_shared<Store>();
  const uint32_t hash = IndexHash(label);
  // An unshared store has this one handle, always its newest.
  std::unique_lock<std::shared_mutex> lock(store_->mu, std::defer_lock);
  if (store_->shared.load(std::memory_order_relaxed)) lock.lock();
  const int32_t code = store_->Lookup(label, hash);
  if (code >= 0 && code < size_) return code;
  std::string owned(label);
  const double value = ParseNumeric(owned);
  if (size_ == store_->size()) {
    size_ = store_->Push(std::move(owned), hash, value) + 1;
    return size_ - 1;
  }
  lock.unlock();
  // A stale copy adds a label: fork its prefix into a store of its own.
  // Slots below size_ never change, so they are read without the lock.
  auto fresh = std::make_shared<Store>();
  for (int32_t c = 0; c < size_; ++c) {
    const Store::Slot& slot = store_->At(c);
    fresh->Push(slot.label, IndexHash(slot.label), slot.value);
  }
  store_ = std::move(fresh);
  size_ = store_->Push(std::move(owned), hash, value) + 1;
  return size_ - 1;
}

int32_t Dictionary::Find(std::string_view label) const {
  if (store_ == nullptr) return -1;
  const uint32_t hash = IndexHash(label);
  std::shared_lock<std::shared_mutex> lock(store_->mu, std::defer_lock);
  if (store_->shared.load(std::memory_order_relaxed)) lock.lock();
  const int32_t code = store_->Lookup(label, hash);
  return code < size_ ? code : -1;
}

Column::Column(std::string name, Dictionary dict, std::vector<int32_t> codes)
    : name_(std::move(name)), dict_(std::move(dict)) {
  auto owner = std::make_shared<std::vector<int32_t>>(std::move(codes));
  num_rows_ = static_cast<int64_t>(owner->size());
  codes_ = std::shared_ptr<const int32_t[]>(owner, owner->data());
}

Column::Column(std::string name, Dictionary dict,
               std::shared_ptr<const int32_t[]> codes, int64_t num_rows)
    : name_(std::move(name)),
      dict_(std::move(dict)),
      codes_(std::move(codes)),
      num_rows_(num_rows) {}

StatusOr<double> Column::NumericValue(int32_t code) const {
  if (code < 0 || code >= dict_.size()) {
    return Status::OutOfRange("code out of range for column " + name_);
  }
  const double v = dict_.NumericValue(code);
  if (std::isnan(v)) {
    return Status::InvalidArgument("label '" + dict_.Label(code) +
                                   "' in column " + name_ +
                                   " is not numeric");
  }
  return v;
}

}  // namespace hypdb
