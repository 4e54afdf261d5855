#include "mem/phys.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>

namespace osiris::mem {

PhysicalMemory::PhysicalMemory(std::size_t bytes) : size_(bytes) {
  if (bytes == 0) return;  // mmap rejects empty mappings
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::uint8_t*>(p);
}

PhysicalMemory::~PhysicalMemory() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

void PhysicalMemory::check(PhysAddr addr, std::size_t len) const {
  if (static_cast<std::size_t>(addr) + len > size_) {
    throw std::out_of_range("PhysicalMemory: access [" + std::to_string(addr) +
                            ", +" + std::to_string(len) + ") beyond " +
                            std::to_string(size_));
  }
}

void PhysicalMemory::read(PhysAddr addr, std::span<std::uint8_t> dst) const {
  check(addr, dst.size());
  std::copy_n(data_ + addr, dst.size(), dst.begin());
}

void PhysicalMemory::write(PhysAddr addr, std::span<const std::uint8_t> src) {
  check(addr, src.size());
  std::copy(src.begin(), src.end(), data_ + addr);
}

std::uint8_t PhysicalMemory::byte(PhysAddr addr) const {
  check(addr, 1);
  return data_[addr];
}

bool PhysicalMemory::dma_ok(PhysAddr addr, std::size_t len) {
  if (static_cast<std::size_t>(addr) + len > size_ ||
      fault::fires(faults_, fault::Point::kDmaError)) {
    ++dma_errors_;
    return false;
  }
  return true;
}

bool PhysicalMemory::dma_read(PhysAddr addr, std::span<std::uint8_t> dst) {
  if (!dma_ok(addr, dst.size())) return false;
  std::copy_n(data_ + addr, dst.size(), dst.begin());
  return true;
}

bool PhysicalMemory::dma_write(PhysAddr addr, std::span<const std::uint8_t> src) {
  if (!dma_ok(addr, src.size())) return false;
  std::copy(src.begin(), src.end(), data_ + addr);
  return true;
}

std::size_t PhysicalMemory::dma_gather(std::span<const PhysBuffer> segs,
                                       std::span<std::uint8_t> dst) {
  std::size_t total = 0;
  for (const auto& s : segs) total += s.len;
  if (dst.size() < total) {
    throw std::out_of_range("PhysicalMemory::dma_gather: dst span too short");
  }
  std::size_t off = 0;
  std::size_t ok = 0;
  for (const auto& s : segs) {
    if (dma_read(s.addr, dst.subspan(off, s.len))) {
      ++ok;
    } else {
      std::fill_n(dst.begin() + static_cast<std::ptrdiff_t>(off), s.len, 0);
    }
    off += s.len;
  }
  return ok;
}

std::size_t PhysicalMemory::dma_scatter(std::span<const PhysBuffer> segs,
                                        std::span<const std::uint8_t> src) {
  std::size_t total = 0;
  for (const auto& s : segs) total += s.len;
  if (src.size() < total) {
    throw std::out_of_range("PhysicalMemory::dma_scatter: src span too short");
  }
  std::size_t off = 0;
  std::size_t ok = 0;
  for (const auto& s : segs) {
    if (dma_write(s.addr, src.subspan(off, s.len))) ++ok;
    off += s.len;
  }
  return ok;
}

std::span<const std::uint8_t> PhysicalMemory::view(PhysAddr addr, std::size_t len) const {
  check(addr, len);
  return {data_ + addr, len};
}

std::span<std::uint8_t> PhysicalMemory::view_mut(PhysAddr addr, std::size_t len) {
  check(addr, len);
  return {data_ + addr, len};
}

}  // namespace osiris::mem
