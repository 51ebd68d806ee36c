#include "core/validity.hpp"

#include <deque>
#include <numeric>
#include <set>

namespace dblind::core {

namespace {

// Decodes an envelope body as T (with tag `type`); nullopt on any codec error.
template <typename T>
std::optional<T> try_decode(MsgType type, std::span<const std::uint8_t> body) {
  try {
    return decode_as<T>(type, body);
  } catch (const CodecError&) {
    return std::nullopt;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

// --- verify once (core/verdict_memo.hpp) ---------------------------------------
//
// Each key covers the verifying key and the exact bytes a verdict depends on;
// the epoch is the memo's installed config epoch.

VerdictKey envelope_key(const VerdictMemo& memo, const zkp::SchnorrVerifyKey& key,
                        const SignedMessage& env) {
  // (cfg_epoch, body) are exactly the epoch-prefixed bytes the signature covers.
  return VerdictKeyBuilder(VerdictKind::kEnvelope, memo.epoch())
      .add(env.service)
      .add(env.signer)
      .add(key.point())
      .add(env.cfg_epoch)
      .add(env.body)
      .add(env.sig.r)
      .add(env.sig.s)
      .finish();
}

VerdictKey service_sig_key(const VerdictMemo& memo, const zkp::SchnorrVerifyKey& key,
                           const ServiceSignedMsg& msg) {
  return VerdictKeyBuilder(VerdictKind::kServiceSig, memo.epoch())
      .add(msg.service)
      .add(key.point())
      .add(msg.body)
      .add(msg.sig.r)
      .add(msg.sig.s)
      .finish();
}

// A contribute body holds the whole VDE statement and proof: the instance id
// and server (the proof context), both ciphertexts and the proof itself.
VerdictKey vde_key(const VerdictMemo& memo, const SystemConfig& cfg, const SignedMessage& env) {
  return VerdictKeyBuilder(VerdictKind::kVde, memo.epoch())
      .add(cfg.a.encryption_key.y())
      .add(cfg.b.encryption_key.y())
      .add(env.body)
      .finish();
}

VerdictKey decrypt_share_key(const VerdictMemo& memo, const mpz::Bigint& h_i,
                             const elgamal::Ciphertext& c, const threshold::DecryptionShare& ds,
                             std::string_view context) {
  return VerdictKeyBuilder(VerdictKind::kDecryptShare, memo.epoch())
      .add(ds.index)
      .add(h_i)
      .add(c.a)
      .add(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(context.data()),
                                         context.size()))
      .add(ds.d)
      .add(ds.proof.t1)
      .add(ds.proof.t2)
      .add(ds.proof.s)
      .finish();
}

// One check: runs `run` directly without a memo, else through it.
template <typename KeyOf, typename Run>
bool check_once(VerdictMemo* memo, KeyOf&& key_of, Run&& run) {
  return memo == nullptr ? run() : memo->check(key_of(*memo), run);
}

// A batch of `n` checks: `run(positions)` verifies the given positions
// together. Without a memo it gets all of them; with one, only those whose
// verdicts are not remembered.
template <typename KeyAt, typename Run>
bool check_each(VerdictMemo* memo, std::size_t n, KeyAt&& key_at, Run&& run) {
  if (memo == nullptr) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    return run(std::span<const std::size_t>(all));
  }
  std::vector<VerdictKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(key_at(*memo, i));
  return memo->check_all(std::span<const VerdictKey>(keys), run);
}

bool service_signature_ok(const ServicePublic& svc, const ServiceSignedMsg& msg,
                          VerdictMemo* memo) {
  return check_once(
      memo, [&](const VerdictMemo& m) { return service_sig_key(m, svc.signing_key, msg); },
      [&] { return svc.signing_key.verify(msg.body, msg.sig); });
}

bool contribute_vde_ok(const SystemConfig& cfg, const SignedMessage& env,
                       const ContributeMsg& msg, VerdictMemo* memo) {
  return check_once(
      memo, [&](const VerdictMemo& m) { return vde_key(m, cfg, env); },
      [&] {
        return zkp::vde_verify(cfg.a.encryption_key, msg.contribution.ea, cfg.b.encryption_key,
                               msg.contribution.eb, msg.vde, vde_context(msg.id, msg.server));
      });
}

// The Feldman verification key h_i of share `index`: from the memo's
// per-epoch cache when one is given, else computed.
mpz::Bigint verification_key(const group::GroupParams& params,
                             const threshold::FeldmanCommitments& commitments,
                             std::uint32_t index, VerdictMemo* memo) {
  return memo != nullptr ? memo->feldman_key(params, commitments, index)
                         : threshold::feldman_eval(params, commitments, index);
}

}  // namespace

bool decryption_share_ok(const group::GroupParams& params, const ServicePublic& svc,
                         const elgamal::Ciphertext& c, const threshold::DecryptionShare& ds,
                         std::string_view context, VerdictMemo* memo) {
  if (ds.index == 0) return false;
  const mpz::Bigint h_i = verification_key(params, svc.enc_commitments, ds.index, memo);
  return check_once(
      memo, [&](const VerdictMemo& m) { return decrypt_share_key(m, h_i, c, ds, context); },
      [&] { return threshold::verify_decryption_share(params, h_i, c, ds, context); });
}

std::vector<std::uint8_t> epoch_signed_bytes(ConfigEpoch epoch,
                                             std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + body.size());
  out.push_back(static_cast<std::uint8_t>(epoch & 0xff));
  out.push_back(static_cast<std::uint8_t>((epoch >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((epoch >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((epoch >> 24) & 0xff));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool envelope_signature_ok(const SystemConfig& cfg, const SignedMessage& env,
                           VerdictMemo* memo) {
  if (env.service > 1) return false;
  const ServicePublic& svc = cfg.service(static_cast<ServiceRole>(env.service));
  if (env.signer == 0 || env.signer > svc.cfg.n) return false;
  const zkp::SchnorrVerifyKey& key = svc.server_key(env.signer);
  return check_once(
      memo, [&](const VerdictMemo& m) { return envelope_key(m, key, env); },
      [&] { return key.verify(epoch_signed_bytes(env.cfg_epoch, env.body), env.sig); });
}

SignedMessage make_envelope(const SystemConfig& cfg, const ServerSecrets& me,
                            std::vector<std::uint8_t> body, ConfigEpoch cfg_epoch,
                            mpz::Prng& prng) {
  zkp::SchnorrSigningKey key =
      zkp::SchnorrSigningKey::from_private(cfg.params, me.server_sign_secret);
  SignedMessage env;
  env.service = static_cast<std::uint8_t>(me.role);
  env.signer = me.rank;
  env.cfg_epoch = cfg_epoch;
  env.sig = key.sign(epoch_signed_bytes(cfg_epoch, body), prng);
  env.body = std::move(body);
  return env;
}

std::optional<InitMsg> check_init(const SystemConfig& cfg, const SignedMessage& env,
                                  VerdictMemo* memo) {
  if (!envelope_signature_ok(cfg, env, memo)) return std::nullopt;
  auto msg = try_decode<InitMsg>(MsgType::kInit, env.body);
  if (!msg) return std::nullopt;
  // The init message is the coordinator announcing its own instance.
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->id.coordinator) return std::nullopt;
  return msg;
}

std::optional<CommitMsg> check_commit(const SystemConfig& cfg, const SignedMessage& env,
                                      VerdictMemo* memo) {
  if (!envelope_signature_ok(cfg, env, memo)) return std::nullopt;
  auto msg = try_decode<CommitMsg>(MsgType::kCommit, env.body);
  if (!msg) return std::nullopt;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;
  return msg;
}

std::optional<RevealMsg> check_reveal(const SystemConfig& cfg, const SignedMessage& env,
                                      VerdictMemo* memo) {
  if (!envelope_signature_ok(cfg, env, memo)) return std::nullopt;
  auto msg = try_decode<RevealMsg>(MsgType::kReveal, env.body);
  if (!msg) return std::nullopt;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->id.coordinator) return std::nullopt;
  // (ii) a set M of 2f+1 different valid commit messages with matching id.
  const std::size_t need = 2 * cfg.b.cfg.f + 1;
  if (msg->commits.size() != need) return std::nullopt;
  std::set<ServerRank> seen;
  for (const SignedMessage& commit_env : msg->commits) {
    // I6: the commit set justifying a reveal must come from the reveal's own
    // configuration epoch — no splicing evidence across reconfigurations.
    if (commit_env.cfg_epoch != env.cfg_epoch) return std::nullopt;
    auto commit = check_commit(cfg, commit_env, memo);
    if (!commit) return std::nullopt;
    if (commit->id != msg->id) return std::nullopt;
    if (!seen.insert(commit->server).second) return std::nullopt;  // must be different servers
  }
  return msg;
}

std::optional<ContributeMsg> check_contribute(const SystemConfig& cfg, const SignedMessage& env,
                                              VerdictMemo* memo) {
  if (!envelope_signature_ok(cfg, env, memo)) return std::nullopt;
  auto msg = try_decode<ContributeMsg>(MsgType::kContribute, env.body);
  if (!msg) return std::nullopt;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;

  // I6: the embedded reveal must be from the contribute's own config epoch.
  if (msg->reveal.cfg_epoch != env.cfg_epoch) return std::nullopt;

  // (iii) the encrypted contribution corresponds to the commitment in the
  // included reveal message (which must itself be valid, with matching id).
  auto reveal = check_reveal(cfg, msg->reveal, memo);
  if (!reveal || reveal->id != msg->id) return std::nullopt;
  bool committed = false;
  for (const SignedMessage& commit_env : reveal->commits) {
    auto commit = try_decode<CommitMsg>(MsgType::kCommit, commit_env.body);
    if (commit && commit->server == msg->server) {
      committed = commit->commitment == msg->contribution.commitment_digest();
      break;
    }
  }
  if (!committed) return std::nullopt;

  // (ii) valid verifiable dual encryption proof, bound to (instance, server).
  if (!contribute_vde_ok(cfg, env, *msg, memo)) return std::nullopt;
  return msg;
}

std::optional<BlindPayload> check_blind(const SystemConfig& cfg, const ServiceSignedMsg& msg,
                                        VerdictMemo* memo) {
  if (msg.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (!service_signature_ok(cfg.b, msg, memo)) return std::nullopt;
  return try_decode<BlindPayload>(MsgType::kBlind, msg.body);
}

std::optional<DonePayload> check_done(const SystemConfig& cfg, const ServiceSignedMsg& msg,
                                      VerdictMemo* memo) {
  if (msg.service != static_cast<std::uint8_t>(ServiceRole::kServiceA)) return std::nullopt;
  if (!service_signature_ok(cfg.a, msg, memo)) return std::nullopt;
  return try_decode<DonePayload>(MsgType::kDone, msg.body);
}

bool check_blind_sign_request(const SystemConfig& cfg, std::span<const std::uint8_t> payload,
                              std::span<const std::uint8_t> evidence, VerdictMemo* memo) {
  auto blind = [&]() -> std::optional<BlindPayload> {
    return try_decode<BlindPayload>(MsgType::kBlind, payload);
  }();
  if (!blind) return false;
  BlindEvidence ev;
  try {
    Reader r(evidence);
    ev = BlindEvidence::decode(r);
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }

  // f+1 valid contribute messages, distinct servers, same id, same reveal.
  if (ev.contributes.size() != cfg.b.cfg.quorum()) return false;
  std::set<ServerRank> servers;
  std::vector<elgamal::Ciphertext> eas, ebs;
  const SignedMessage* reveal = nullptr;
  for (const SignedMessage& env : ev.contributes) {
    // I6: the f+1 contributions must all be stamped with one config epoch.
    if (env.cfg_epoch != ev.contributes.front().cfg_epoch) return false;
    auto c = check_contribute(cfg, env, memo);
    if (!c) return false;
    if (c->id != blind->id) return false;
    if (!servers.insert(c->server).second) return false;
    if (reveal == nullptr) {
      reveal = &env;  // remember the first; compare the rest below
    }
    eas.push_back(c->contribution.ea);
    ebs.push_back(c->contribution.eb);
  }
  // Same-reveal rule (see header comment): compare the embedded reveal of
  // every contribute message for byte-for-byte equality.
  std::optional<ContributeMsg> first =
      try_decode<ContributeMsg>(MsgType::kContribute, ev.contributes.front().body);
  if (!first) return false;
  for (const SignedMessage& env : ev.contributes) {
    auto c = try_decode<ContributeMsg>(MsgType::kContribute, env.body);
    if (!c || !(c->reveal == first->reveal)) return false;
  }

  // The payload must be exactly the homomorphic product of the evidence
  // contributions (and non-degenerate, per the ElGamal Multiplication side
  // condition).
  auto ea = cfg.a.encryption_key.product(eas);
  auto eb = cfg.b.encryption_key.product(ebs);
  if (!ea || !eb) return false;
  return *ea == blind->blinded.ea && *eb == blind->blinded.eb;
}

namespace {

// The envelope signatures of one evidence check, verified together in one
// Schnorr batch equation. With a memo, signatures this node already verified
// drop out of the batch, and the rest are remembered once the batch passes.
class SigBatch {
 public:
  explicit SigBatch(VerdictMemo* memo) : memo_(memo) {}

  void add(const zkp::SchnorrVerifyKey& key, const SignedMessage& env) {
    items_.push_back({&key, &env});
  }

  [[nodiscard]] bool verify(const group::GroupParams& params) const {
    return check_each(
        memo_, items_.size(),
        [&](const VerdictMemo& m, std::size_t i) {
          return envelope_key(m, *items_[i].key, *items_[i].env);
        },
        [&](std::span<const std::size_t> which) {
          // A deque keeps the epoch-prefixed byte strings at stable addresses
          // for the spans inside zkp::BatchEntry.
          std::deque<std::vector<std::uint8_t>> signed_bytes;
          std::vector<zkp::BatchEntry> batch;
          batch.reserve(which.size());
          for (std::size_t i : which) {
            const SignedMessage& env = *items_[i].env;
            signed_bytes.push_back(epoch_signed_bytes(env.cfg_epoch, env.body));
            batch.push_back({items_[i].key, signed_bytes.back(), &env.sig});
          }
          return zkp::schnorr_batch_verify(params, batch);
        });
  }

 private:
  struct Item {
    const zkp::SchnorrVerifyKey* key;
    const SignedMessage* env;
  };
  VerdictMemo* memo_;
  std::vector<Item> items_;
};

// Structural part of check_commit: everything except the envelope signature,
// which is appended to `sigs` for one combined Schnorr batch check.
std::optional<CommitMsg> collect_commit(const SystemConfig& cfg, const SignedMessage& env,
                                        ConfigEpoch expect_epoch, SigBatch& sigs) {
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer == 0 || env.signer > cfg.b.cfg.n) return std::nullopt;
  if (env.cfg_epoch != expect_epoch) return std::nullopt;  // I6
  auto msg = try_decode<CommitMsg>(MsgType::kCommit, env.body);
  if (!msg) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;
  sigs.add(cfg.b.server_key(env.signer), env);
  return msg;
}

// Structural part of check_reveal; all 2f+2 signatures (the reveal envelope
// plus its commits) go into `sigs`.
std::optional<RevealMsg> collect_reveal(const SystemConfig& cfg, const SignedMessage& env,
                                        ConfigEpoch expect_epoch, SigBatch& sigs) {
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer == 0 || env.signer > cfg.b.cfg.n) return std::nullopt;
  if (env.cfg_epoch != expect_epoch) return std::nullopt;  // I6
  auto msg = try_decode<RevealMsg>(MsgType::kReveal, env.body);
  if (!msg) return std::nullopt;
  if (env.signer != msg->id.coordinator) return std::nullopt;
  sigs.add(cfg.b.server_key(env.signer), env);
  const std::size_t need = 2 * cfg.b.cfg.f + 1;
  if (msg->commits.size() != need) return std::nullopt;
  std::set<ServerRank> seen;
  for (const SignedMessage& commit_env : msg->commits) {
    auto commit = collect_commit(cfg, commit_env, expect_epoch, sigs);
    if (!commit) return std::nullopt;
    if (commit->id != msg->id) return std::nullopt;
    if (!seen.insert(commit->server).second) return std::nullopt;
  }
  return msg;
}

// The commitment-match clause of check_contribute: `server` committed, in the
// (already structurally valid) reveal, to this contribution.
bool commitment_matches(const RevealMsg& reveal, ServerRank server, const ContributeMsg& msg) {
  for (const SignedMessage& commit_env : reveal.commits) {
    auto commit = try_decode<CommitMsg>(MsgType::kCommit, commit_env.body);
    if (commit && commit->server == server)
      return commit->commitment == msg.contribution.commitment_digest();
  }
  return false;
}

// The VDE proofs of `msgs` (decoded from `envs`) in one random-linear-
// combination batch; with a memo, only the proofs not verified before.
bool vde_batch_ok(const SystemConfig& cfg, std::span<const SignedMessage> envs,
                  std::span<const ContributeMsg> msgs, mpz::Prng& prng, VerdictMemo* memo) {
  return check_each(
      memo, msgs.size(),
      [&](const VerdictMemo& m, std::size_t i) { return vde_key(m, cfg, envs[i]); },
      [&](std::span<const std::size_t> which) {
        std::vector<zkp::VdeBatchItem> vdes;
        vdes.reserve(which.size());
        for (std::size_t i : which) vdes.push_back(contribute_vde_item(cfg, msgs[i]));
        return zkp::vde_batch_verify(vdes, prng);
      });
}

}  // namespace

std::optional<ContributeMsg> precheck_contribute_batch(const SystemConfig& cfg,
                                                       const SignedMessage& env,
                                                       VerdictMemo* memo) {
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer == 0 || env.signer > cfg.b.cfg.n) return std::nullopt;
  auto msg = try_decode<ContributeMsg>(MsgType::kContribute, env.body);
  if (!msg) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;

  SigBatch sigs(memo);
  sigs.add(cfg.b.server_key(env.signer), env);
  auto reveal = collect_reveal(cfg, msg->reveal, env.cfg_epoch, sigs);
  if (!reveal || reveal->id != msg->id) return std::nullopt;
  if (!commitment_matches(*reveal, msg->server, *msg)) return std::nullopt;
  if (!sigs.verify(cfg.params)) return std::nullopt;
  return msg;
}

zkp::VdeBatchItem contribute_vde_item(const SystemConfig& cfg, const ContributeMsg& msg) {
  return {&cfg.a.encryption_key, &msg.contribution.ea,
          &cfg.b.encryption_key, &msg.contribution.eb,
          &msg.vde,              vde_context(msg.id, msg.server)};
}

std::optional<ContributeMsg> check_contribute_batch(const SystemConfig& cfg,
                                                    const SignedMessage& env, mpz::Prng& prng,
                                                    VerdictMemo* memo) {
  auto msg = precheck_contribute_batch(cfg, env, memo);
  if (!msg) return std::nullopt;
  if (!vde_batch_ok(cfg, std::span<const SignedMessage>(&env, 1),
                    std::span<const ContributeMsg>(&*msg, 1), prng, memo))
    return std::nullopt;
  return msg;
}

bool check_blind_sign_request_batch(const SystemConfig& cfg, std::span<const std::uint8_t> payload,
                                    std::span<const std::uint8_t> evidence, mpz::Prng& prng,
                                    VerdictMemo* memo) {
  auto blind = try_decode<BlindPayload>(MsgType::kBlind, payload);
  if (!blind) return false;
  BlindEvidence ev;
  try {
    Reader r(evidence);
    ev = BlindEvidence::decode(r);
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }

  if (ev.contributes.size() != cfg.b.cfg.quorum()) return false;
  SigBatch sigs(memo);
  std::vector<ContributeMsg> msgs;
  msgs.reserve(ev.contributes.size());
  std::set<ServerRank> servers;
  const ConfigEpoch epoch = ev.contributes.front().cfg_epoch;
  for (const SignedMessage& env : ev.contributes) {
    if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return false;
    if (env.signer == 0 || env.signer > cfg.b.cfg.n) return false;
    if (env.cfg_epoch != epoch) return false;  // I6: one config epoch per quorum
    auto c = try_decode<ContributeMsg>(MsgType::kContribute, env.body);
    if (!c) return false;
    if (env.signer != c->server) return false;
    if (c->id != blind->id) return false;
    if (!servers.insert(c->server).second) return false;
    sigs.add(cfg.b.server_key(env.signer), env);
    msgs.push_back(std::move(*c));
  }

  // Same-reveal rule first: with all embedded reveals byte-identical, the
  // shared reveal (and its 2f+1 commits) needs validating only once — the
  // serial path re-checks it per contribute.
  const ContributeMsg& first = msgs.front();
  for (const ContributeMsg& c : msgs) {
    if (!(c.reveal == first.reveal)) return false;
  }
  auto reveal = collect_reveal(cfg, first.reveal, epoch, sigs);
  if (!reveal || reveal->id != blind->id) return false;
  for (const ContributeMsg& c : msgs) {
    if (!commitment_matches(*reveal, c.server, c)) return false;
  }
  if (!sigs.verify(cfg.params)) return false;
  if (!vde_batch_ok(cfg, ev.contributes, msgs, prng, memo)) return false;

  std::vector<elgamal::Ciphertext> eas, ebs;
  for (const ContributeMsg& c : msgs) {
    eas.push_back(c.contribution.ea);
    ebs.push_back(c.contribution.eb);
  }
  auto ea = cfg.a.encryption_key.product(eas);
  auto eb = cfg.b.encryption_key.product(ebs);
  if (!ea || !eb) return false;
  return *ea == blind->blinded.ea && *eb == blind->blinded.eb;
}

bool check_done_sign_request_batch(const SystemConfig& cfg, std::span<const std::uint8_t> payload,
                                   std::span<const std::uint8_t> evidence,
                                   const elgamal::Ciphertext& stored_ea_m, mpz::Prng& prng,
                                   VerdictMemo* memo) {
  auto done = try_decode<DonePayload>(MsgType::kDone, payload);
  if (!done) return false;
  DoneEvidence ev;
  try {
    Reader r(evidence);
    ev = DoneEvidence::decode(r);
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }

  auto blind = check_blind(cfg, ev.blind, memo);
  if (!blind || blind->id != done->id) return false;

  auto ea_m_rho = cfg.a.encryption_key.multiply(stored_ea_m, blind->blinded.ea);
  if (!ea_m_rho) return false;

  if (ev.shares.size() != cfg.a.cfg.quorum()) return false;
  std::set<std::uint32_t> seen;
  std::vector<mpz::Bigint> keys;
  for (const threshold::DecryptionShare& s : ev.shares) {
    if (s.index == 0 || !seen.insert(s.index).second) return false;
    keys.push_back(verification_key(cfg.params, cfg.a.enc_commitments, s.index, memo));
  }
  const std::string context = decrypt_context(done->id);
  const bool shares_ok = check_each(
      memo, ev.shares.size(),
      [&](const VerdictMemo& m, std::size_t i) {
        return decrypt_share_key(m, keys[i], *ea_m_rho, ev.shares[i], context);
      },
      [&](std::span<const std::size_t> which) {
        std::vector<mpz::Bigint> batch_keys;
        std::vector<threshold::DecryptionShare> batch_shares;
        for (std::size_t i : which) {
          batch_keys.push_back(keys[i]);
          batch_shares.push_back(ev.shares[i]);
        }
        return threshold::batch_verify_decryption_shares(cfg.params, batch_keys, *ea_m_rho,
                                                         batch_shares, context, prng);
      });
  if (!shares_ok) return false;
  mpz::Bigint m_rho = threshold::combine_decryption(cfg.params, *ea_m_rho, ev.shares);
  if (m_rho != ev.m_rho) return false;
  if (!cfg.params.in_zp_star(m_rho)) return false;

  if (!(done->ea_m == stored_ea_m)) return false;
  elgamal::Ciphertext expect_eb_m =
      cfg.b.encryption_key.juxtapose(m_rho, cfg.b.encryption_key.inverse(blind->blinded.eb));
  return done->eb_m == expect_eb_m;
}

bool check_done_sign_request(const SystemConfig& cfg, std::span<const std::uint8_t> payload,
                             std::span<const std::uint8_t> evidence,
                             const elgamal::Ciphertext& stored_ea_m, VerdictMemo* memo) {
  auto done = try_decode<DonePayload>(MsgType::kDone, payload);
  if (!done) return false;
  DoneEvidence ev;
  try {
    Reader r(evidence);
    ev = DoneEvidence::decode(r);
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }

  auto blind = check_blind(cfg, ev.blind, memo);
  if (!blind || blind->id != done->id) return false;

  // Recompute E_A(mρ) from the locally stored E_A(m) (step 6(a)).
  auto ea_m_rho = cfg.a.encryption_key.multiply(stored_ea_m, blind->blinded.ea);
  if (!ea_m_rho) return false;

  // V^id_mρ: f+1 verified decryption shares combining to mρ (step 6(b)).
  if (ev.shares.size() != cfg.a.cfg.quorum()) return false;
  std::set<std::uint32_t> seen;
  const std::string context = decrypt_context(done->id);
  for (const threshold::DecryptionShare& s : ev.shares) {
    if (!seen.insert(s.index).second) return false;
    if (!decryption_share_ok(cfg.params, cfg.a, *ea_m_rho, s, context, memo)) return false;
  }
  mpz::Bigint m_rho = threshold::combine_decryption(cfg.params, *ea_m_rho, ev.shares);
  if (m_rho != ev.m_rho) return false;
  if (!cfg.params.in_zp_star(m_rho)) return false;

  // Payload consistency (steps 6(c)/6(d)): E_A(m) is the stored ciphertext
  // and E_B(m) = (mρ)·E_B(ρ)^{-1}.
  if (!(done->ea_m == stored_ea_m)) return false;
  elgamal::Ciphertext expect_eb_m =
      cfg.b.encryption_key.juxtapose(m_rho, cfg.b.encryption_key.inverse(blind->blinded.eb));
  return done->eb_m == expect_eb_m;
}

}  // namespace dblind::core
