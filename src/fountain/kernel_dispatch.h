// The one runtime dispatcher behind both kernel planes (gf2_kernels.h,
// gf256_kernels.h), and the one reader of FMTCP_FORCE_KERNEL. A forced
// name pins both planes: every name either plane reports, plus one alias
// table for the name a plane lacks. Unforced, a plane runs the last
// (widest) entry of its narrowest-first list.
#pragma once

#include <atomic>
#include <cstring>
#include <vector>

namespace fmtcp::fountain::detail {

/// The kernel `name` means in plane `plane` ("GF(2)" or "GF(256)"): the
/// alias target when `name` is one of that plane's aliases, else `name`.
const char* resolve_kernel_alias(const char* plane, const char* name);

/// FMTCP_FORCE_KERNEL, or nullptr when unset or empty.
const char* forced_kernel_name();

/// Reports a FMTCP_FORCE_KERNEL value `plane` cannot honour, naming its
/// available kernels, and aborts.
[[noreturn]] void abort_unknown_kernel(const char* plane, const char* name,
                                       const std::vector<const char*>& names);

/// Active-kernel selection for one plane. `Ops` is the plane's kernel
/// table, whose first member is `const char* name`; `available` lists
/// the usable tables narrowest first, scalar at the front.
template <typename Ops>
class KernelDispatcher {
 public:
  using List = std::vector<const Ops*> (*)();

  constexpr KernelDispatcher(const char* plane, List available)
      : plane_(plane), available_(available) {}

  const Ops& active() {
    const Ops* ops = active_.load(std::memory_order_acquire);
    if (ops == nullptr) {
      // Benign init race: initial() is deterministic per process
      // environment, so concurrent first calls store the same pointer.
      ops = initial();
      active_.store(ops, std::memory_order_release);
    }
    return *ops;
  }

  /// Switches the active kernel by name or alias; false (no change) if
  /// neither names a kernel available here.
  bool set(const char* name) {
    const Ops* ops = find(name);
    if (ops == nullptr) return false;
    active_.store(ops, std::memory_order_release);
    return true;
  }

 private:
  const Ops* find(const char* name) const {
    const char* want = resolve_kernel_alias(plane_, name);
    for (const Ops* ops : available_()) {
      if (std::strcmp(ops->name, want) == 0) return ops;
    }
    return nullptr;
  }

  const Ops* initial() const {
    const char* force = forced_kernel_name();
    if (force == nullptr) return available_().back();
    if (const Ops* ops = find(force)) return ops;
    std::vector<const char*> names;
    for (const Ops* ops : available_()) names.push_back(ops->name);
    abort_unknown_kernel(plane_, force, names);
  }

  const char* plane_;
  List available_;
  std::atomic<const Ops*> active_{nullptr};
};

}  // namespace fmtcp::fountain::detail
