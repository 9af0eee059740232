#include "vgpu/fault.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <system_error>

#include "util/error.hpp"
#include "util/random.hpp"

namespace mgg::vgpu {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kAllocTransient: return "alloc_transient";
    case FaultKind::kAllocPermanent: return "alloc_permanent";
    case FaultKind::kTransferTransient: return "transfer_transient";
    case FaultKind::kTransferPermanent: return "transfer_permanent";
    case FaultKind::kTransferSlowdown: return "transfer_slowdown";
    case FaultKind::kKernelSlowdown: return "kernel_slowdown";
    case FaultKind::kKernelFault: return "kernel_fault";
    case FaultKind::kHandshakeDrop: return "handshake_drop";
  }
  return "unknown";
}

namespace {

bool is_permanent(FaultKind kind) {
  return kind == FaultKind::kAllocPermanent ||
         kind == FaultKind::kTransferPermanent ||
         kind == FaultKind::kKernelFault;
}

FaultKind kind_from_name(const std::string& name) {
  static constexpr FaultKind kAll[] = {
      FaultKind::kAllocTransient,    FaultKind::kAllocPermanent,
      FaultKind::kTransferTransient, FaultKind::kTransferPermanent,
      FaultKind::kTransferSlowdown,  FaultKind::kKernelSlowdown,
      FaultKind::kKernelFault,       FaultKind::kHandshakeDrop,
  };
  for (const FaultKind k : kAll) {
    if (name == to_string(k)) return k;
  }
  throw Error(Status::kInvalidArgument,
              "unknown fault kind '" + name + "'");
}

}  // namespace

FaultPlan FaultPlan::from_seed(std::uint64_t seed, int num_devices) {
  MGG_REQUIRE(num_devices >= 1, "fault plan needs >= 1 device");
  util::Rng rng(util::splitmix64(seed ^ 0xfa17ULL));
  // Chaos default: transient + slowdown kinds only, so every seeded
  // plan is recoverable in principle (permanent kinds are scripted
  // explicitly where a test wants them).
  static constexpr FaultKind kDrawable[] = {
      FaultKind::kAllocTransient,    FaultKind::kTransferTransient,
      FaultKind::kTransferSlowdown,  FaultKind::kKernelSlowdown,
  };
  FaultPlan plan;
  const int n_faults = static_cast<int>(rng.next_in_range(2, 4));
  for (int i = 0; i < n_faults; ++i) {
    FaultSpec spec;
    spec.kind = kDrawable[rng.next_below(std::size(kDrawable))];
    spec.device = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(num_devices)));
    if (spec.kind == FaultKind::kTransferTransient ||
        spec.kind == FaultKind::kTransferSlowdown) {
      // A concrete peer (possibly == device; such a link never fires,
      // which is fine — the plan stays deterministic either way).
      spec.peer = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(num_devices)));
    }
    spec.at_event = rng.next_below(32);
    spec.count = 1 + rng.next_below(3);
    spec.factor = 2.0 + static_cast<double>(rng.next_below(7));
    plan.specs.push_back(spec);
  }
  return plan;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    FaultSpec spec;
    // kind@device[>peer][#at_event][xcount][*factor]
    const std::size_t at = item.find('@');
    MGG_REQUIRE(at != std::string::npos,
                "fault spec '" + item + "' missing '@device'");
    spec.kind = kind_from_name(item.substr(0, at));
    const char* p = item.c_str() + at + 1;
    const char* const last = item.c_str() + item.size();
    // std::from_chars takes no whitespace, no '+' and, for the unsigned
    // fields, no '-'; a value that does not fit the field is
    // result_out_of_range, so nothing wraps or aliases another site.
    const auto number = [&](auto& value, const char* field) {
      const auto [end, ec] = std::from_chars(p, last, value);
      MGG_REQUIRE(ec == std::errc{},
                  "fault spec '" + item + "': bad " + field);
      p = end;
    };
    number(spec.device, "device");
    // -1 is the documented "any device" wildcard; anything more
    // negative is a typo, not a site.
    MGG_REQUIRE(spec.device >= -1, "fault spec '" + item + "': bad device");
    if (*p == '>') {
      ++p;
      number(spec.peer, "peer");
      MGG_REQUIRE(spec.peer >= -1, "fault spec '" + item + "': bad peer");
    }
    if (*p == '#') {
      ++p;
      number(spec.at_event, "at_event");
    }
    if (*p == 'x') {
      ++p;
      number(spec.count, "count");
      MGG_REQUIRE(spec.count > 0, "fault spec '" + item + "': bad count");
    }
    if (*p == '*') {
      ++p;
      number(spec.factor, "factor");
      MGG_REQUIRE(std::isfinite(spec.factor) && spec.factor > 0,
                  "fault spec '" + item + "': bad factor");
    }
    MGG_REQUIRE(*p == '\0',
                "fault spec '" + item + "': trailing junk '" + p + "'");
    // Duplicate site coverage is almost always a copy-paste error (the
    // two specs would double-fire every covered event); reject it
    // naming the token instead of silently stacking.
    for (const FaultSpec& prior : plan.specs) {
      MGG_REQUIRE(prior.kind != spec.kind || prior.device != spec.device ||
                      prior.peer != spec.peer ||
                      prior.at_event != spec.at_event,
                  "duplicate fault spec '" + item + "'");
    }
    plan.specs.push_back(spec);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultSpec& spec : specs) {
    if (!out.empty()) out += ',';
    out += mgg::vgpu::to_string(spec.kind);
    out += '@';
    out += std::to_string(spec.device);
    if (spec.peer >= 0) {
      out += '>';
      out += std::to_string(spec.peer);
    }
    if (spec.at_event > 0) {
      out += '#';
      out += std::to_string(spec.at_event);
    }
    if (spec.count != 1 && !is_permanent(spec.kind)) {
      out += 'x';
      out += std::to_string(spec.count);
    }
    if (spec.kind == FaultKind::kTransferSlowdown ||
        spec.kind == FaultKind::kKernelSlowdown) {
      out += '*';
      // Plans are authored with small integral factors; print
      // round-trippably without trailing zeros.
      std::ostringstream f;
      f << spec.factor;
      out += f.str();
    }
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, int num_devices)
    : plan_(std::move(plan)), n_(num_devices) {
  MGG_REQUIRE(n_ >= 1, "FaultInjector needs >= 1 device");
  for (const FaultSpec& spec : plan_.specs) {
    MGG_REQUIRE(spec.device < n_, "fault spec device out of range");
    MGG_REQUIRE(spec.peer < n_, "fault spec peer out of range");
  }
  const std::size_t n = static_cast<std::size_t>(n_);
  alloc_sites_ = std::make_unique<Site[]>(n);
  kernel_sites_ = std::make_unique<Site[]>(n);
  transfer_sites_ = std::make_unique<Site[]>(n * n);
  handshake_sites_ = std::make_unique<Site[]>(n * n);
}

bool FaultInjector::covers(const FaultSpec& spec, std::uint64_t event) {
  if (event < spec.at_event) return false;
  if (is_permanent(spec.kind)) return true;  // never clears
  return event - spec.at_event < spec.count;
}

void FaultInjector::record_fault(const FaultSpec& spec, int device,
                                 int peer, std::uint64_t event) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  if (is_permanent(spec.kind)) {
    // First permanent hit wins; later ones keep the original victim.
    int expected = -1;
    lost_device_.compare_exchange_strong(expected, device,
                                         std::memory_order_relaxed);
  }
  Tracer* tracer = tracer_.load(std::memory_order_acquire);
  if (tracer != nullptr) {
    TraceSpan span;
    span.name = to_string(spec.kind);
    span.category = TraceCategory::kFault;
    span.gpu = static_cast<std::int16_t>(device);
    span.track = 0;
    span.peer = peer;
    // Zero-width observation at the timeline origin; `items` carries
    // the per-site event index for replay debugging.
    span.start_s = 0;
    span.end_s = 0;
    span.items = event;
    tracer->record(span);
  }
}

AllocDecision FaultInjector::on_alloc(int device) {
  const std::uint64_t event =
      alloc_sites_[static_cast<std::size_t>(device)].count.fetch_add(
          1, std::memory_order_relaxed);
  AllocDecision decision;
  const bool disarmed = permanents_disarmed_.load(std::memory_order_relaxed);
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind != FaultKind::kAllocTransient &&
        spec.kind != FaultKind::kAllocPermanent) {
      continue;
    }
    if (disarmed && is_permanent(spec.kind)) continue;
    if (spec.device != -1 && spec.device != device) continue;
    if (!covers(spec, event)) continue;
    decision.fail = true;
    record_fault(spec, device, -1, event);
  }
  return decision;
}

TransferDecision FaultInjector::on_transfer(int src, int dst) {
  const std::uint64_t event =
      transfer_sites_[link_index(src, dst)].count.fetch_add(
          1, std::memory_order_relaxed);
  TransferDecision decision;
  const bool disarmed = permanents_disarmed_.load(std::memory_order_relaxed);
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind != FaultKind::kTransferTransient &&
        spec.kind != FaultKind::kTransferPermanent &&
        spec.kind != FaultKind::kTransferSlowdown) {
      continue;
    }
    if (disarmed && is_permanent(spec.kind)) continue;
    if (spec.device != -1 && spec.device != src) continue;
    if (spec.peer != -1 && spec.peer != dst) continue;
    if (!covers(spec, event)) continue;
    switch (spec.kind) {
      case FaultKind::kTransferTransient: decision.transient_fail = true; break;
      case FaultKind::kTransferPermanent: decision.permanent_fail = true; break;
      default: decision.slowdown *= spec.factor; break;
    }
    record_fault(spec, src, dst, event);
  }
  return decision;
}

KernelDecision FaultInjector::on_kernel(int device) {
  const std::uint64_t event =
      kernel_sites_[static_cast<std::size_t>(device)].count.fetch_add(
          1, std::memory_order_relaxed);
  KernelDecision decision;
  const bool disarmed = permanents_disarmed_.load(std::memory_order_relaxed);
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind != FaultKind::kKernelSlowdown &&
        spec.kind != FaultKind::kKernelFault) {
      continue;
    }
    if (disarmed && is_permanent(spec.kind)) continue;
    if (spec.device != -1 && spec.device != device) continue;
    if (!covers(spec, event)) continue;
    if (spec.kind == FaultKind::kKernelFault) {
      decision.fail = true;
    } else {
      decision.slowdown *= spec.factor;
    }
    record_fault(spec, device, -1, event);
  }
  return decision;
}

bool FaultInjector::drop_handshake(int src, int dst) {
  const std::uint64_t event =
      handshake_sites_[link_index(src, dst)].count.fetch_add(
          1, std::memory_order_relaxed);
  bool drop = false;
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind != FaultKind::kHandshakeDrop) continue;
    if (spec.device != -1 && spec.device != src) continue;
    if (spec.peer != -1 && spec.peer != dst) continue;
    if (!covers(spec, event)) continue;
    drop = true;
    record_fault(spec, src, dst, event);
  }
  return drop;
}

void FaultInjector::acknowledge_device_loss() {
  permanents_disarmed_.store(true, std::memory_order_relaxed);
  lost_device_.store(-1, std::memory_order_relaxed);
  reset_counters();
}

std::uint64_t FaultInjector::alloc_events(int device) const {
  return alloc_sites_[static_cast<std::size_t>(device)].count.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::kernel_events(int device) const {
  return kernel_sites_[static_cast<std::size_t>(device)].count.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::transfer_events(int src, int dst) const {
  return transfer_sites_[link_index(src, dst)].count.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::handshake_events(int src, int dst) const {
  return handshake_sites_[link_index(src, dst)].count.load(
      std::memory_order_relaxed);
}

void FaultInjector::reset_counters() {
  const std::size_t n = static_cast<std::size_t>(n_);
  for (std::size_t i = 0; i < n; ++i) {
    alloc_sites_[i].count.store(0, std::memory_order_relaxed);
    kernel_sites_[i].count.store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < n * n; ++i) {
    transfer_sites_[i].count.store(0, std::memory_order_relaxed);
    handshake_sites_[i].count.store(0, std::memory_order_relaxed);
  }
}

std::unique_ptr<FaultInjector> make_injector_from_flags(
    const std::string& plan_text, std::uint64_t fault_seed, int num_devices) {
  if (plan_text.empty() && fault_seed == 0) return nullptr;
  FaultPlan plan = plan_text.empty()
                       ? FaultPlan::from_seed(fault_seed, num_devices)
                       : FaultPlan::parse(plan_text);
  return std::make_unique<FaultInjector>(std::move(plan), num_devices);
}

std::uint64_t lane_fault_seed(std::uint64_t base_seed, int lane) {
  // Golden-ratio stride before the splitmix keeps lanes 0 and 1 as
  // decorrelated as lanes 0 and 1000; +1 so lane 0 is not the raw base.
  return util::splitmix64(base_seed ^
                          (0x9e3779b97f4a7c15ULL *
                           static_cast<std::uint64_t>(lane + 1)));
}

std::unique_ptr<FaultInjector> make_lane_injector_from_flags(
    const std::string& plan_text, std::uint64_t fault_seed, int lane,
    int num_devices) {
  MGG_REQUIRE(lane >= 0, "lane index must be >= 0");
  FaultPlan plan;
  // A scripted plan is a targeted scenario (e.g. one permanent device
  // loss); it arms lane 0 only, so the remaining lanes model the
  // healthy rest of the fleet.
  if (!plan_text.empty() && lane == 0) plan = FaultPlan::parse(plan_text);
  if (fault_seed != 0) {
    FaultPlan seeded =
        FaultPlan::from_seed(lane_fault_seed(fault_seed, lane), num_devices);
    plan.specs.insert(plan.specs.end(), seeded.specs.begin(),
                      seeded.specs.end());
  }
  if (plan.empty()) return nullptr;
  return std::make_unique<FaultInjector>(std::move(plan), num_devices);
}

}  // namespace mgg::vgpu
