#include "threshold/thresh_sign.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "mpz/modmath.hpp"
#include "zkp/transcript.hpp"

namespace dblind::threshold {

hash::Digest nonce_commitment_digest(const group::GroupParams& params, const NonceReveal& reveal) {
  zkp::Transcript t("dblind/thresh-sign/nonce-commit/v1");
  t.absorb(Bigint(static_cast<std::uint64_t>(reveal.index)));
  t.absorb(params.p());
  t.absorb(reveal.t);
  return t.digest();
}

SigningMember::SigningMember(const group::GroupParams& params, Share share, mpz::Prng& prng)
    : params_(params), share_(std::move(share)), nonce_(params.random_exponent(prng)) {
  reveal_ = {share_.index, params_.pow_g(nonce_)};
  commitment_ = {share_.index, nonce_commitment_digest(params_, reveal_)};
}

std::optional<PartialSignature> SigningMember::respond(
    std::span<const NonceCommitment> commitments, std::span<const NonceReveal> reveals,
    const Bigint& service_y, std::span<const std::uint8_t> msg) {
  if (used_) return std::nullopt;  // nonce reuse would leak the key share
  if (reveals.size() != commitments.size() || reveals.empty()) return std::nullopt;

  bool self_included = false;
  std::set<std::uint32_t> seen;
  for (std::size_t i = 0; i < reveals.size(); ++i) {
    const NonceReveal& r = reveals[i];
    if (!seen.insert(r.index).second) return std::nullopt;
    if (!params_.in_group(r.t)) return std::nullopt;
    // Every reveal must match its prior commitment — otherwise a Byzantine
    // member chose its nonce after seeing ours, biasing R.
    auto c = std::find_if(commitments.begin(), commitments.end(),
                          [&](const NonceCommitment& nc) { return nc.index == r.index; });
    if (c == commitments.end()) return std::nullopt;
    if (c->digest != nonce_commitment_digest(params_, r)) return std::nullopt;
    if (r.index == share_.index) {
      if (r.t != reveal_.t) return std::nullopt;
      self_included = true;
    }
  }
  if (!self_included) return std::nullopt;

  used_ = true;
  Bigint r_joint = combine_nonce(params_, reveals);
  Bigint e = zkp::schnorr_challenge(params_, r_joint, service_y, msg);

  // s_i = λ_i·k_i + e·λ_i·x_i would also work; we instead put λ into the
  // combination step and send s_i = k_i + e·x_i, which keeps the per-partial
  // verification equation independent of the quorum.
  Bigint s = mpz::addmod(nonce_, mpz::mulmod(e, share_.value, params_.q()), params_.q());
  return PartialSignature{share_.index, std::move(s)};
}

namespace {

bool partial_well_formed(const group::GroupParams& params, const NonceReveal& reveal,
                         const PartialSignature& partial) {
  if (partial.index != reveal.index) return false;
  if (partial.s.is_negative() || partial.s >= params.q()) return false;
  return params.in_group(reveal.t);
}

// g^{s_i} == t_i · h_i^e
bool partial_equation_holds(const group::GroupParams& params, const Bigint& h_i,
                            const NonceReveal& reveal, const PartialSignature& partial,
                            const Bigint& e) {
  return params.pow_g(partial.s) == params.mul(reveal.t, params.pow(h_i, e));
}

}  // namespace

Bigint combine_nonce(const group::GroupParams& params, std::span<const NonceReveal> reveals) {
  if (reveals.empty()) throw std::invalid_argument("combine_nonce: no reveals");
  std::vector<std::uint32_t> indices;
  std::set<std::uint32_t> seen;
  for (const NonceReveal& r : reveals) {
    if (!seen.insert(r.index).second)
      throw std::invalid_argument("combine_nonce: duplicate index");
    indices.push_back(r.index);
  }
  Bigint r_joint = params.identity();
  for (const NonceReveal& r : reveals) {
    Bigint lambda = lagrange_at_zero(indices, r.index, params.q());
    r_joint = params.mul(r_joint, params.pow(r.t, lambda));
  }
  return r_joint;
}

bool verify_partial_signature(const group::GroupParams& params,
                              const FeldmanCommitments& commitments, const NonceReveal& reveal,
                              const PartialSignature& partial, const Bigint& e) {
  if (!partial_well_formed(params, reveal, partial)) return false;
  return partial_equation_holds(params, feldman_eval(params, commitments, partial.index), reveal,
                                partial, e);
}

bool verify_partial_signature(const group::GroupParams& params, const Bigint& h_i,
                              const NonceReveal& reveal, const PartialSignature& partial,
                              const Bigint& e) {
  return partial_well_formed(params, reveal, partial) &&
         partial_equation_holds(params, h_i, reveal, partial, e);
}

zkp::SchnorrSignature combine_signature(const group::GroupParams& params,
                                        std::span<const NonceReveal> reveals,
                                        std::span<const PartialSignature> partials) {
  if (partials.empty() || partials.size() != reveals.size())
    throw std::invalid_argument("combine_signature: partials/reveals mismatch");
  std::vector<std::uint32_t> indices;
  std::set<std::uint32_t> seen;
  for (const PartialSignature& p : partials) {
    if (!seen.insert(p.index).second)
      throw std::invalid_argument("combine_signature: duplicate index");
    indices.push_back(p.index);
  }
  for (const NonceReveal& r : reveals) {
    if (!seen.contains(r.index))
      throw std::invalid_argument("combine_signature: reveal without matching partial");
  }
  Bigint r_joint = combine_nonce(params, reveals);
  Bigint s(0);
  for (const PartialSignature& p : partials) {
    Bigint lambda = lagrange_at_zero(indices, p.index, params.q());
    s = mpz::addmod(s, mpz::mulmod(lambda, p.s, params.q()), params.q());
  }
  return {std::move(r_joint), std::move(s)};
}

}  // namespace dblind::threshold
