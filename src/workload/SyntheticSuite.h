//===- workload/SyntheticSuite.h - Figure 7 benchmark suite ----*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 7 benchmark suite: allocation-intensive programs (cfrac,
/// espresso, lindsay, p2c, roboop) and SPECint2000-like programs.  SPEC
/// sources and inputs are not redistributable, so each benchmark is
/// modelled as a synthetic workload matching its *allocation profile* —
/// allocations per operation, object size distribution, live-set shape,
/// and compute-to-allocation ratio.  Allocator overhead (what Figure 7
/// measures) is a function of exactly these parameters: the
/// allocation-intensive group spends most of its time in the allocator,
/// the SPEC group mostly computes.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_WORKLOAD_SYNTHETICSUITE_H
#define EXTERMINATOR_WORKLOAD_SYNTHETICSUITE_H

#include "workload/Workload.h"

#include <memory>
#include <vector>

namespace exterminator {

/// Allocation profile of one benchmark.
struct SyntheticProfile {
  const char *Name = "";
  /// True for the allocation-intensive group, false for SPEC-like.
  bool AllocationIntensive = false;
  /// Outer operations.
  unsigned Operations = 1000;
  /// Allocations per operation.
  unsigned AllocsPerOp = 4;
  /// Requested sizes drawn uniformly from [MinSize, MaxSize].
  unsigned MinSize = 16;
  unsigned MaxSize = 128;
  /// Arithmetic iterations per operation (non-allocator work).
  unsigned ComputePerOp = 64;
  /// Live objects kept in a FIFO window before being freed.
  unsigned LiveWindow = 64;
};

/// A program generated from an allocation profile.
class SyntheticWorkload : public Workload {
public:
  explicit SyntheticWorkload(const SyntheticProfile &Profile)
      : Profile(Profile) {}

  const char *name() const override { return Profile.Name; }

  WorkloadResult run(AllocatorHandle &Handle,
                     uint64_t InputSeed) const override;

  const SyntheticProfile &profile() const { return Profile; }

private:
  SyntheticProfile Profile;
};

/// The Figure 7 roster: allocation-intensive suite then SPECint-like
/// suite, in the paper's order.
std::vector<SyntheticProfile> figure7Profiles();

} // namespace exterminator

#endif // EXTERMINATOR_WORKLOAD_SYNTHETICSUITE_H
