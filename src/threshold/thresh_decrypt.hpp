// Threshold ElGamal decryption with verifiable decryption shares.
//
// Server i computes d_i = a^{x_i} and proves correctness with a Chaum-
// Pedersen DLOG-equality proof against its public verification key
// h_i = g^{x_i}. Any f+1 verified shares combine by Lagrange interpolation
// in the exponent: m = b / Π d_i^{λ_i}. This is the "threshold decryption"
// building block invoked in step 6(b) of the paper's Figure 4, and the
// evidence V^id_{mρ} that the decryption result is correct is exactly the
// set of per-share proofs.
#pragma once

#include <span>
#include <string_view>

#include "threshold/keygen.hpp"
#include "zkp/batch.hpp"
#include "zkp/chaum_pedersen.hpp"

namespace dblind::threshold {

struct DecryptionShare {
  std::uint32_t index;
  Bigint d;  // a^{x_i}
  zkp::DlogEqProof proof;

  friend bool operator==(const DecryptionShare&, const DecryptionShare&) = default;
};

// Produces server `share.index`'s decryption share for ciphertext `c`.
[[nodiscard]] DecryptionShare make_decryption_share(const group::GroupParams& params,
                                                    const elgamal::Ciphertext& c,
                                                    const Share& share, std::string_view context,
                                                    mpz::Prng& prng);

// Verifies a share against the service's Feldman commitments.
[[nodiscard]] bool verify_decryption_share(const group::GroupParams& params,
                                           const FeldmanCommitments& commitments,
                                           const elgamal::Ciphertext& c,
                                           const DecryptionShare& ds, std::string_view context);

// Same check against a precomputed verification key h_i =
// feldman_eval(commitments, ds.index) — for callers that cache h_i per
// configuration epoch instead of re-deriving it on every share.
[[nodiscard]] bool verify_decryption_share(const group::GroupParams& params, const Bigint& h_i,
                                           const elgamal::Ciphertext& c,
                                           const DecryptionShare& ds, std::string_view context);

// Batch-verifies all shares of one decryption round (same ciphertext and
// context) with a single random-linear-combination multi-exponentiation.
// Accepts iff every share would pass verify_decryption_share, up to the
// 2^-zkp::kBatchRandomizerBits soundness error.
[[nodiscard]] bool batch_verify_decryption_shares(const group::GroupParams& params,
                                                  const FeldmanCommitments& commitments,
                                                  const elgamal::Ciphertext& c,
                                                  std::span<const DecryptionShare> shares,
                                                  std::string_view context, mpz::Prng& prng);

// Same, with precomputed verification keys: keys[i] is shares[i]'s h_i.
[[nodiscard]] bool batch_verify_decryption_shares(const group::GroupParams& params,
                                                  std::span<const Bigint> keys,
                                                  const elgamal::Ciphertext& c,
                                                  std::span<const DecryptionShare> shares,
                                                  std::string_view context, mpz::Prng& prng);

// Batch check first; on failure names the failing share indices (positions in
// `shares`, not server indices) via individual verification.
[[nodiscard]] zkp::BatchResult batch_verify_decryption_shares_isolate(
    const group::GroupParams& params, const FeldmanCommitments& commitments,
    const elgamal::Ciphertext& c, std::span<const DecryptionShare> shares,
    std::string_view context, mpz::Prng& prng);

// Lowers one share check, against its verification key h_i, to its
// Chaum-Pedersen equation for cross-instance aggregation via
// zkp::CpCrossBatch (the same equation the batch verifier folds). Returns
// false (appending nothing) for the structurally invalid ds.index == 0,
// which verify_decryption_share rejects unconditionally.
[[nodiscard]] bool share_lower_to_cp(const group::GroupParams& params, const Bigint& h_i,
                                     const elgamal::Ciphertext& c, const DecryptionShare& ds,
                                     std::string_view context,
                                     std::vector<zkp::CpBatchItem>& out);

// Combines >= f+1 distinct shares into the plaintext. The caller must have
// verified the shares; combination throws std::invalid_argument on duplicate
// indices or an empty span.
[[nodiscard]] Bigint combine_decryption(const group::GroupParams& params,
                                        const elgamal::Ciphertext& c,
                                        std::span<const DecryptionShare> shares);

}  // namespace dblind::threshold
