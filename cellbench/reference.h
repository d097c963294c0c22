// A fixed reference workload that measures the host's speed while cells
// run.
//
// The benchmark's host is shared. Neighbours on the same physical cores
// slow a cell by up to 2x, for seconds to minutes at a time, and thread
// CPU time slows with it. main.cc times the reference every few slices of
// a measured cell, and run.py scales the cell's times by how much slower
// the reference ran than on a quiet host.
//
// The reference is the shape of the GF kernels' inner loop: a split
// nibble-table multiply-accumulate with 256-bit shuffles over an
// L1-resident region. Under contention it slowed with the cells, while
// scalar table lookups and pointer chasing barely did. It runs none of
// the simulator's code, so a change to the program cannot move it.
#pragma once

#include <cstdint>
#include <vector>

namespace cellbench {

class Reference {
 public:
  Reference();

  /// Runs the reference workload once and returns its wall time in ns.
  std::uint64_t time_ns();

 private:
  std::vector<std::uint8_t> tables_;  ///< Low and high nibble tables.
  std::vector<std::uint8_t> src_;
  std::vector<std::uint8_t> dst_;
};

}  // namespace cellbench
