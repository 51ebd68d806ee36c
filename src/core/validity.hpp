// Validity of self-verifying messages (paper Figure 5, §4.2.3).
//
// "A valid message is, by definition, one that is consistent with the sender
// following the protocol. Thus, if messages that are not valid are ignored
// then attacks involving bogus messages become indistinguishable from lost
// messages."
//
// Each check below validates a message purely from its contents plus public
// configuration — including, recursively, all embedded evidence:
//   init        — correctly signed (by the coordinator named in id).
//   commit      — correctly signed (by the server it names).
//   reveal      — correctly signed and contains 2f+1 *different* valid
//                 commit messages with matching id.
//   contribute  — correctly signed, includes a valid verifiable dual
//                 encryption proof, and the encrypted contribution matches
//                 the commitment in the included reveal message.
//   blind/done  — correctly (threshold-)signed by the service.
//
// One rule beyond the paper's figure (implied by its §4.2.1 argument): the
// f+1 contribute messages justifying a blind payload must all embed the SAME
// reveal message. Otherwise a Byzantine coordinator can run two reveal
// rounds, let a compromised server commit *after* seeing contributions from
// the first round, and splice rounds together to choose the blinding factor.
// Together with the honest-server rule "contribute to at most one reveal per
// instance", same-reveal evidence restores the commit-before-reveal order.
//
// Verify once: every check takes an optional VerdictMemo (core/verdict_memo).
// With one, a signature or proof this node already verified is not verified
// again; the structural rules above still run on every call, so the accept/
// reject decision is the same with or without a memo.
#pragma once

#include <optional>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/verdict_memo.hpp"

namespace dblind::core {

// The bytes a ⟨m⟩_i signature actually covers: 4-byte little-endian config
// epoch, then the body. Binding the stamp into the signed bytes means an
// envelope can never be re-stamped into another configuration.
[[nodiscard]] std::vector<std::uint8_t> epoch_signed_bytes(ConfigEpoch epoch,
                                                           std::span<const std::uint8_t> body);

// Verifies the envelope signature against the named server's public key,
// over the epoch-prefixed bytes. False on unknown service/rank.
[[nodiscard]] bool envelope_signature_ok(const SystemConfig& cfg, const SignedMessage& env,
                                         VerdictMemo* memo = nullptr);

// Signs `body` with this server's key, producing the ⟨m⟩_i envelope stamped
// with (and signature-bound to) `cfg_epoch`.
[[nodiscard]] SignedMessage make_envelope(const SystemConfig& cfg, const ServerSecrets& me,
                                          std::vector<std::uint8_t> body, ConfigEpoch cfg_epoch,
                                          mpz::Prng& prng);

// One threshold decryption share of service `svc` for ciphertext `c`
// (threshold::verify_decryption_share against the cached h_i).
[[nodiscard]] bool decryption_share_ok(const group::GroupParams& params, const ServicePublic& svc,
                                       const elgamal::Ciphertext& c,
                                       const threshold::DecryptionShare& ds,
                                       std::string_view context, VerdictMemo* memo = nullptr);

// Fig. 5 row "init": returns the decoded message iff valid.
[[nodiscard]] std::optional<InitMsg> check_init(const SystemConfig& cfg, const SignedMessage& env,
                                                VerdictMemo* memo = nullptr);

// Fig. 5 row "commit".
[[nodiscard]] std::optional<CommitMsg> check_commit(const SystemConfig& cfg,
                                                    const SignedMessage& env,
                                                    VerdictMemo* memo = nullptr);

// Fig. 5 row "reveal": signature + 2f+1 different valid commits, matching id.
[[nodiscard]] std::optional<RevealMsg> check_reveal(const SystemConfig& cfg,
                                                    const SignedMessage& env,
                                                    VerdictMemo* memo = nullptr);

// Fig. 5 row "contribute": signature + valid VDE + contribution matches the
// commitment inside the embedded (valid) reveal message.
[[nodiscard]] std::optional<ContributeMsg> check_contribute(const SystemConfig& cfg,
                                                            const SignedMessage& env,
                                                            VerdictMemo* memo = nullptr);

// Fig. 5 row "blind": threshold signature of service B over a BlindPayload.
[[nodiscard]] std::optional<BlindPayload> check_blind(const SystemConfig& cfg,
                                                      const ServiceSignedMsg& msg,
                                                      VerdictMemo* memo = nullptr);

// "done": threshold signature of service A over a DonePayload.
[[nodiscard]] std::optional<DonePayload> check_done(const SystemConfig& cfg,
                                                    const ServiceSignedMsg& msg,
                                                    VerdictMemo* memo = nullptr);

// Evidence for a kBlind signing request (step 5(c)): f+1 valid contribute
// messages from distinct servers, same id, all embedding the same reveal,
// whose combined contribution equals the payload.
[[nodiscard]] bool check_blind_sign_request(const SystemConfig& cfg,
                                            std::span<const std::uint8_t> payload,
                                            std::span<const std::uint8_t> evidence,
                                            VerdictMemo* memo = nullptr);

// Evidence for a kDone signing request (step 6(d)): valid blind message,
// f+1 verified decryption shares for E_A(mρ) = E_A(m) × E_A(ρ) (computed
// against the locally stored E_A(m)) combining to mρ, and a payload equal to
// (id, E_A(m), (mρ)·E_B(ρ)^{-1}).
[[nodiscard]] bool check_done_sign_request(const SystemConfig& cfg,
                                           std::span<const std::uint8_t> payload,
                                           std::span<const std::uint8_t> evidence,
                                           const elgamal::Ciphertext& stored_ea_m,
                                           VerdictMemo* memo = nullptr);

// --- batch-verification fast path (ProtocolOptions::batch_verify) -----------
//
// Each *_batch function checks exactly the predicates of its serial
// counterpart, but verifies all envelope/commit signatures in one Schnorr
// batch equation and all Chaum-Pedersen/VDE/decryption-share proofs in one
// random-linear-combination multi-exponentiation (randomizers from `prng`).
// check_blind_sign_request_batch additionally exploits the same-reveal rule:
// the byte-identical reveal embedded in all f+1 contributes is validated
// once instead of f+1 times. Accept/reject agrees with the serial functions
// up to the 2^-128 batch soundness error (docs/PROTOCOL.md).

[[nodiscard]] std::optional<ContributeMsg> check_contribute_batch(const SystemConfig& cfg,
                                                                  const SignedMessage& env,
                                                                  mpz::Prng& prng,
                                                                  VerdictMemo* memo = nullptr);

// --- cross-transfer drain split (concurrent multi-transfer engine) -----------
//
// check_contribute_batch, split in two so the VDE check can be aggregated
// ACROSS pending contribute messages from many concurrent transfers:
// verify-pool workers run the structural + signature phase per message
// (precheck_contribute_batch — decode, epoch/rank/commitment matching, one
// Schnorr batch over the envelope, reveal and commit signatures), then the
// drain lowers every surviving message's VDE proof (contribute_vde_item +
// zkp::vde_lower_to_cp) into one zkp::CpCrossBatch and runs a SINGLE
// random-linear-combination pass for the whole drain. A message is accepted
// iff precheck passed and its VDE tag survived — exactly the predicate of
// check_contribute_batch, up to the same 2^-128 batch soundness error.

[[nodiscard]] std::optional<ContributeMsg> precheck_contribute_batch(const SystemConfig& cfg,
                                                                     const SignedMessage& env,
                                                                     VerdictMemo* memo = nullptr);

// The VDE batch item for a prechecked contribute message. The returned item
// points into `cfg` and `msg`, which must outlive its use.
[[nodiscard]] zkp::VdeBatchItem contribute_vde_item(const SystemConfig& cfg,
                                                    const ContributeMsg& msg);

[[nodiscard]] bool check_blind_sign_request_batch(const SystemConfig& cfg,
                                                  std::span<const std::uint8_t> payload,
                                                  std::span<const std::uint8_t> evidence,
                                                  mpz::Prng& prng, VerdictMemo* memo = nullptr);

[[nodiscard]] bool check_done_sign_request_batch(const SystemConfig& cfg,
                                                 std::span<const std::uint8_t> payload,
                                                 std::span<const std::uint8_t> evidence,
                                                 const elgamal::Ciphertext& stored_ea_m,
                                                 mpz::Prng& prng, VerdictMemo* memo = nullptr);

}  // namespace dblind::core
