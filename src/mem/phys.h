// Simulated host physical memory.
//
// A flat byte array addressed by 32-bit physical addresses. All network
// payload in the simulation is real data stored here: DMA engines copy
// bytes in and out of this array, protocol checksums are computed over it,
// and tests verify end-to-end integrity through it.
//
// The array is one anonymous private mapping, so the host kernel supplies
// zeroed pages on first touch: a 64 MB node costs only the pages its
// traffic actually reaches, not a 64 MB zero-fill at construction.
#pragma once

#include <cstdint>
#include <span>

#include "fault/fault.h"

namespace osiris::mem {

using PhysAddr = std::uint32_t;

/// A contiguous run of physical memory: the unit of data exchanged between
/// the host driver and the on-board processors (paper §2.2).
struct PhysBuffer {
  PhysAddr addr = 0;
  std::uint32_t len = 0;

  friend bool operator==(const PhysBuffer&, const PhysBuffer&) = default;
};

class PhysicalMemory {
 public:
  /// Maps `bytes` of zeroed memory. Throws std::bad_alloc if the host
  /// refuses the mapping.
  explicit PhysicalMemory(std::size_t bytes);
  ~PhysicalMemory();

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Reads `dst.size()` bytes starting at `addr`. Bounds-checked.
  void read(PhysAddr addr, std::span<std::uint8_t> dst) const;

  /// Writes `src` starting at `addr`. Bounds-checked.
  void write(PhysAddr addr, std::span<const std::uint8_t> src);

  [[nodiscard]] std::uint8_t byte(PhysAddr addr) const;

  /// Enables fault injection on the DMA entry points (not owned).
  void set_fault_plane(fault::FaultPlane* plane) { faults_ = plane; }

  /// DMA-engine entry points. Unlike read()/write(), a transfer that falls
  /// outside physical memory — e.g. the address came from a corrupted
  /// descriptor — or an injected fault::Point::kDmaError does not throw:
  /// the transfer is abandoned, no bytes move, and false is returned (the
  /// controller's error bit; the firmware presses on regardless).
  bool dma_read(PhysAddr addr, std::span<std::uint8_t> dst);
  bool dma_write(PhysAddr addr, std::span<const std::uint8_t> src);

  /// Scatter/gather transfers used by the DMA engines. Each segment is an
  /// independent DMA burst: faults are consulted and errors counted per
  /// segment, exactly as if the caller had issued one dma_read/dma_write
  /// per buffer. A failed gather segment leaves its slice of `dst`
  /// zero-filled; a failed scatter segment moves no bytes. Returns the
  /// number of segments that transferred. Throws only on a dst/src span
  /// shorter than the segment list's total length.
  std::size_t dma_gather(std::span<const PhysBuffer> segs,
                         std::span<std::uint8_t> dst);
  std::size_t dma_scatter(std::span<const PhysBuffer> segs,
                          std::span<const std::uint8_t> src);

  [[nodiscard]] std::uint64_t dma_errors() const { return dma_errors_; }

  /// Direct view for the cache model and DMA engines (bounds-checked).
  [[nodiscard]] std::span<const std::uint8_t> view(PhysAddr addr, std::size_t len) const;
  [[nodiscard]] std::span<std::uint8_t> view_mut(PhysAddr addr, std::size_t len);

 private:
  void check(PhysAddr addr, std::size_t len) const;
  bool dma_ok(PhysAddr addr, std::size_t len);

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  fault::FaultPlane* faults_ = nullptr;
  std::uint64_t dma_errors_ = 0;
};

}  // namespace osiris::mem
