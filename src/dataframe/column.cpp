#include "dataframe/column.h"

#include <cmath>
#include <cstdlib>
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

}  // namespace

Dictionary::Store::~Store() {
  for (int32_t code = 0; code < size_; ++code) At(code).~Slot();
  for (int b = 0; b < kMaxBlocks; ++b) {
    if (blocks_[b] != nullptr) ::operator delete(blocks_[b]);
  }
}

int32_t Dictionary::Store::Lookup(const std::string& label) const {
  auto it = index_.find(std::string_view(label));
  return it == index_.end() ? -1 : it->second;
}

int32_t Dictionary::Store::Push(std::string label, double value) {
  const int32_t code = size_;
  const uint32_t pos = static_cast<uint32_t>(code) + kFirstBlock;
  const int block = BlockOf(pos);
  if (blocks_[block] == nullptr) {
    blocks_[block] = static_cast<Slot*>(
        ::operator new(sizeof(Slot) * (size_t{kFirstBlock} << block)));
  }
  Slot* slot = new (&blocks_[block][pos - (kFirstBlock << block)])
      Slot{std::move(label), value};
  index_.emplace(std::string_view(slot->label), code);
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

int32_t Dictionary::GetOrAdd(const std::string& label) {
  if (store_ == nullptr) store_ = std::make_shared<Store>();
  // An unshared store has this one handle, always its newest.
  std::unique_lock<std::shared_mutex> lock(store_->mu, std::defer_lock);
  if (store_->shared.load(std::memory_order_relaxed)) lock.lock();
  const int32_t code = store_->Lookup(label);
  if (code >= 0 && code < size_) return code;
  if (size_ == store_->size()) {
    size_ = store_->Push(label, ParseNumeric(label)) + 1;
    return size_ - 1;
  }
  lock.unlock();
  // A stale copy adds a label: fork its prefix into a store of its own.
  // Slots below size_ never change, so they are read without the lock.
  auto fresh = std::make_shared<Store>();
  for (int32_t c = 0; c < size_; ++c) {
    const Store::Slot& slot = store_->At(c);
    fresh->Push(slot.label, slot.value);
  }
  store_ = std::move(fresh);
  size_ = store_->Push(label, ParseNumeric(label)) + 1;
  return size_ - 1;
}

int32_t Dictionary::Find(const std::string& label) const {
  if (store_ == nullptr) return -1;
  std::shared_lock<std::shared_mutex> lock(store_->mu, std::defer_lock);
  if (store_->shared.load(std::memory_order_relaxed)) lock.lock();
  const int32_t code = store_->Lookup(label);
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
