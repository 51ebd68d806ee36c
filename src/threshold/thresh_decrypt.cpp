#include "threshold/thresh_decrypt.hpp"

#include <set>
#include <stdexcept>
#include <vector>

#include "mpz/modmath.hpp"

namespace dblind::threshold {

DecryptionShare make_decryption_share(const group::GroupParams& params,
                                      const elgamal::Ciphertext& c, const Share& share,
                                      std::string_view context, mpz::Prng& prng) {
  DecryptionShare out;
  out.index = share.index;
  out.d = params.pow(c.a, share.value);
  // DLOG(x_i, g, h_i, a, d_i): same exponent links the verification key and
  // the decryption share.
  zkp::DlogStatement stmt{params.g(), params.pow_g(share.value), c.a, out.d};
  out.proof = zkp::dlog_prove(params, stmt, share.value, context, prng);
  return out;
}

bool verify_decryption_share(const group::GroupParams& params,
                             const FeldmanCommitments& commitments, const elgamal::Ciphertext& c,
                             const DecryptionShare& ds, std::string_view context) {
  return verify_decryption_share(params, feldman_eval(params, commitments, ds.index), c, ds,
                                 context);
}

bool verify_decryption_share(const group::GroupParams& params, const Bigint& h_i,
                             const elgamal::Ciphertext& c, const DecryptionShare& ds,
                             std::string_view context) {
  if (ds.index == 0) return false;
  zkp::DlogStatement stmt{params.g(), h_i, c.a, ds.d};
  return zkp::dlog_verify(params, stmt, ds.proof, context);
}

bool share_lower_to_cp(const group::GroupParams& params, const Bigint& h_i,
                       const elgamal::Ciphertext& c, const DecryptionShare& ds,
                       std::string_view context, std::vector<zkp::CpBatchItem>& out) {
  if (ds.index == 0) return false;
  out.push_back({zkp::DlogStatement{params.g(), h_i, c.a, ds.d}, ds.proof, std::string(context)});
  return true;
}

bool batch_verify_decryption_shares(const group::GroupParams& params,
                                    const FeldmanCommitments& commitments,
                                    const elgamal::Ciphertext& c,
                                    std::span<const DecryptionShare> shares,
                                    std::string_view context, mpz::Prng& prng) {
  std::vector<Bigint> keys;
  keys.reserve(shares.size());
  for (const DecryptionShare& ds : shares) {
    keys.push_back(feldman_eval(params, commitments, ds.index));
  }
  return batch_verify_decryption_shares(params, keys, c, shares, context, prng);
}

bool batch_verify_decryption_shares(const group::GroupParams& params,
                                    std::span<const Bigint> keys, const elgamal::Ciphertext& c,
                                    std::span<const DecryptionShare> shares,
                                    std::string_view context, mpz::Prng& prng) {
  if (keys.size() != shares.size()) return false;
  std::vector<zkp::CpBatchItem> items;
  items.reserve(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (!share_lower_to_cp(params, keys[i], c, shares[i], context, items)) return false;
  }
  return zkp::cp_batch_verify(params, items, prng);
}

zkp::BatchResult batch_verify_decryption_shares_isolate(
    const group::GroupParams& params, const FeldmanCommitments& commitments,
    const elgamal::Ciphertext& c, std::span<const DecryptionShare> shares,
    std::string_view context, mpz::Prng& prng) {
  zkp::BatchResult r;
  if (batch_verify_decryption_shares(params, commitments, c, shares, context, prng)) return r;
  r.ok = false;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (!verify_decryption_share(params, commitments, c, shares[i], context)) r.bad.push_back(i);
  }
  return r;
}

Bigint combine_decryption(const group::GroupParams& params, const elgamal::Ciphertext& c,
                          std::span<const DecryptionShare> shares) {
  if (shares.empty()) throw std::invalid_argument("combine_decryption: no shares");
  std::vector<std::uint32_t> indices;
  std::set<std::uint32_t> seen;
  for (const DecryptionShare& s : shares) {
    if (!seen.insert(s.index).second)
      throw std::invalid_argument("combine_decryption: duplicate share index");
    indices.push_back(s.index);
  }
  // a^k = Π d_i^{λ_i}; m = b / a^k.
  Bigint ak = params.identity();
  for (const DecryptionShare& s : shares) {
    Bigint lambda = lagrange_at_zero(indices, s.index, params.q());
    ak = params.mul(ak, params.pow(s.d, lambda));
  }
  return params.mul(c.b, params.inv(ak));
}

}  // namespace dblind::threshold
