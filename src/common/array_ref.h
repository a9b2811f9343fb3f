#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace blend {

/// An allocator whose no-argument construct() default-initializes, so
/// `resize(n)` and the size constructor leave trivial elements
/// uninitialized instead of zero-filling them (constructs with arguments
/// fall back to std::allocator_traits' placement new). Large arrays that parallel
/// tasks overwrite completely are then first touched (page-faulted in) by
/// those tasks, not by a serial fill on the allocating thread.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// The owned storage of a PodArray: a vector whose size constructor and
/// resize() leave elements uninitialized. Every element must be written
/// before it is read; pass a fill value (`PodVector<T>(n, v)`, `assign`) for
/// anything that must start with one.
template <typename T>
using PodVector = std::vector<T, DefaultInitAllocator<T>>;

/// Storage seam for the index's fixed-width arrays: the array either owns its
/// elements on the heap (bundles built from a lake, or loaded with the heap
/// `ReadSnapshot`) or views memory owned by someone else (mmap-backed
/// `OpenSnapshot` bundles, where the elements are served zero-copy out of the
/// file mapping). Store accessors read through `data()`/`operator[]` and never
/// see the difference.
///
/// Move-only: a view mode array holds a raw pointer whose lifetime is managed
/// by the snapshot storage attached to the owning IndexBundle, so implicit
/// copies (which could silently outlive that storage) are disallowed.
template <typename T>
class PodArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodArray elements must be memcpy-safe: they are serialized "
                "as raw bytes and served straight from a file mapping");

 public:
  PodArray() = default;
  PodArray(PodArray&& other) noexcept
      : owned_(std::move(other.owned_)), ptr_(other.ptr_), size_(other.size_) {
    other.ptr_ = nullptr;
    other.size_ = 0;
  }
  PodArray& operator=(PodArray&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      ptr_ = other.ptr_;
      size_ = other.size_;
      other.ptr_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  PodArray(const PodArray&) = delete;
  PodArray& operator=(const PodArray&) = delete;

  /// Takes ownership of `v`; the array serves elements from its own heap.
  void Own(PodVector<T> v) {
    owned_ = std::move(v);
    ptr_ = owned_.data();
    size_ = owned_.size();
  }

  /// Points the array at externally owned memory (a snapshot mapping). The
  /// caller guarantees [p, p + n) outlives this array.
  void BindView(const T* p, size_t n) {
    owned_.clear();
    owned_.shrink_to_fit();
    ptr_ = p;
    size_ = n;
  }

  const T* data() const { return ptr_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return ptr_[i]; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + size_; }
  std::span<const T> span() const { return {ptr_, size_}; }

 private:
  PodVector<T> owned_;
  const T* ptr_ = nullptr;
  size_t size_ = 0;
};

}  // namespace blend
