// Zero-filled tables whose pages are touched only when used.
//
// Every node carries a few large tables that start zeroed but are mostly
// never touched in a run: the dual-port RAM's 128 KB word array (and its
// pre-write shadow) and the data cache's per-line tags. Value-initialising
// them as std::vectors writes every page when a node is built. ZeroedArray
// takes its storage from calloc instead, which on memory fresh from the
// kernel skips the clearing pass, so a page is faulted in only when the
// simulation first reads or writes it. On recycled heap memory calloc
// clears the block as the vector did; either way every element reads 0.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

namespace osiris::sim {

template <class T>
class ZeroedArray {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                    std::is_trivially_copyable_v<T>,
                "calloc'd storage must be a valid all-zero T");

 public:
  explicit ZeroedArray(std::size_t n)
      : data_(static_cast<T*>(std::calloc(n, sizeof(T)))), size_(n) {
    if (data_ == nullptr && n != 0) throw std::bad_alloc();
  }

  T& operator[](std::size_t i) { return data_.get()[i]; }
  const T& operator[](std::size_t i) const { return data_.get()[i]; }
  [[nodiscard]] std::size_t size() const { return size_; }
  T* begin() { return data_.get(); }
  T* end() { return data_.get() + size_; }

 private:
  struct Free {
    void operator()(T* p) const { std::free(p); }
  };
  std::unique_ptr<T, Free> data_;
  std::size_t size_;
};

}  // namespace osiris::sim
