#include "gpu/sharing.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace sgprs::gpu {

void compute_set_shares(int device_total_sms,
                        const std::vector<int>& context_sms,
                        const std::vector<ShareRequest>& reqs,
                        const SharingParams& params, ShareBuffers& out) {
  SGPRS_CHECK(device_total_sms > 0);
  auto& grants = out.grants;
  grants.assign(reqs.size(), ShareGrant{});
  out.rate_factor = 0.0;
  if (reqs.empty()) return;

  // Per-context total weight of active kernels (weights are > 0, so a
  // context is active iff its weight is).
  auto& ctx_weight = out.ctx_weight;
  ctx_weight.assign(context_sms.size(), 0.0);
  for (const auto& r : reqs) {
    SGPRS_CHECK(r.context >= 0 &&
                r.context < static_cast<int>(context_sms.size()));
    SGPRS_CHECK(r.weight > 0.0);
    ctx_weight[r.context] += r.weight;
  }

  // Layer 2: demand = sum of SM allocations of contexts with running work.
  double demand = 0.0;
  int active_contexts = 0;
  for (std::size_t c = 0; c < context_sms.size(); ++c) {
    if (ctx_weight[c] > 0.0) {
      demand += static_cast<double>(context_sms[c]);
      ++active_contexts;
    }
  }
  const double total = static_cast<double>(device_total_sms);
  SGPRS_CHECK(params.contention_exponent > 0.0 &&
              params.contention_exponent <= 1.0);
  const double contention =
      demand > total ? std::pow(total / demand, params.contention_exponent)
                     : 1.0;

  // Layer 3: client-count interference.
  const auto k = static_cast<double>(reqs.size());
  double rate_factor =
      contention / (1.0 + params.interference_gamma * (k - 1.0));

  // Over-subscription thrash across contexts.
  const double oversub = demand / total;
  if (oversub > 1.0 && active_contexts > 1) {
    rate_factor /= 1.0 + params.oversub_thrash_kappa *
                             static_cast<double>(active_contexts - 1) *
                             (oversub - 1.0);
  }

  // Layer 1: weighted space-share inside each context.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& r = reqs[i];
    const double share = static_cast<double>(context_sms[r.context]) *
                         r.weight / ctx_weight[r.context];
    grants[i].sms = share;
  }
  out.rate_factor = rate_factor;
}

void compute_shares(const SpeedupModel& model, int device_total_sms,
                    const std::vector<int>& context_sms,
                    const std::vector<ShareRequest>& reqs,
                    const SharingParams& params, ShareBuffers& out) {
  compute_set_shares(device_total_sms, context_sms, reqs, params, out);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    out.grants[i].rate = kernel_rate(model, reqs[i].op, out.grants[i].sms,
                                     out.rate_factor);
  }
}

}  // namespace sgprs::gpu
