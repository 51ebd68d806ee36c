// Verify once (core/verdict_memo.hpp): a memo may make a repeated check
// cheap, but it must never change an accept/reject decision. Every test runs
// on both group backends.
#include "core/verdict_memo.hpp"

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/validity.hpp"
#include "mpz/modmath.hpp"
#include "obs/metrics.hpp"
#include "tests/core/test_util.hpp"
#include "zkp/vde.hpp"

namespace dblind::core {
namespace {

using group::ParamId;
using mpz::Bigint;
using mpz::Prng;
using testing::TestSystem;

class VerdictMemoTest : public ::testing::TestWithParam<ParamId> {
 protected:
  TestSystem ts = TestSystem::make(7, {4, 1}, {4, 1}, GetParam());
  Prng prng{99};
  InstanceId id{1, 1, 0};

  const SystemConfig& cfg() const { return ts.cfg; }
  const ServerSecrets& b(ServerRank r) const { return ts.b_secrets[r - 1]; }

  struct Contrib {
    Bigint r1, r2;
    Contribution contribution;
  };
  Contrib make_contrib() {
    Contrib c;
    Bigint rho = ts.params.random_element(prng);
    c.r1 = ts.params.random_exponent(prng);
    c.r2 = ts.params.random_exponent(prng);
    c.contribution.ea = cfg().a.encryption_key.encrypt_with_nonce(rho, c.r1);
    c.contribution.eb = cfg().b.encryption_key.encrypt_with_nonce(rho, c.r2);
    return c;
  }
  SignedMessage signed_commit(const InstanceId& iid, ServerRank server, const Contribution& c) {
    CommitMsg m;
    m.id = iid;
    m.server = server;
    m.commitment = c.commitment_digest();
    return make_envelope(cfg(), b(server), encode_body(MsgType::kCommit, m), 0, prng);
  }
  SignedMessage signed_reveal(const InstanceId& iid, const std::vector<SignedMessage>& commits) {
    RevealMsg m;
    m.id = iid;
    m.commits = commits;
    return make_envelope(cfg(), b(iid.coordinator), encode_body(MsgType::kReveal, m), 0, prng);
  }
  SignedMessage signed_contribute(ServerRank server, const Contrib& c,
                                  const SignedMessage& reveal) {
    ContributeMsg m;
    m.id = id;
    m.server = server;
    m.reveal = reveal;
    m.contribution = c.contribution;
    m.vde = zkp::vde_prove(cfg().a.encryption_key, c.contribution.ea, c.r1,
                           cfg().b.encryption_key, c.contribution.eb, c.r2,
                           vde_context(id, server), prng);
    return make_envelope(cfg(), b(server), encode_body(MsgType::kContribute, m), 0, prng);
  }
  // Blind payload + encoded evidence for f+1 contributes.
  std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>> blind_request(
      const std::vector<SignedMessage>& contributes, const std::vector<Contrib>& contribs) {
    BlindEvidence ev;
    ev.contributes = contributes;
    std::vector<elgamal::Ciphertext> eas, ebs;
    for (const Contrib& c : contribs) {
      eas.push_back(c.contribution.ea);
      ebs.push_back(c.contribution.eb);
    }
    BlindPayload payload;
    payload.id = id;
    payload.blinded.ea = *cfg().a.encryption_key.product(eas);
    payload.blinded.eb = *cfg().b.encryption_key.product(ebs);
    Writer w;
    ev.encode(w);
    return {encode_body(MsgType::kBlind, payload), w.take()};
  }
};

VerdictKey key_of(std::uint32_t n, ConfigEpoch epoch = 0) {
  return VerdictKeyBuilder(VerdictKind::kEnvelope, epoch).add(n).finish();
}

TEST_P(VerdictMemoTest, FailedVerdictIsNeverCached) {
  VerdictMemo memo;
  Contrib c = make_contrib();
  SignedMessage good = signed_commit(id, 2, c.contribution);
  SignedMessage bad = good;
  bad.sig.s = mpz::addmod(bad.sig.s, Bigint(1), ts.params.q());

  // A bad signature first: rejected and not remembered.
  EXPECT_FALSE(check_commit(cfg(), bad, &memo).has_value());
  EXPECT_EQ(memo.size(), 0u);
  // The good signature on the same body is then verified and remembered.
  EXPECT_TRUE(check_commit(cfg(), good, &memo).has_value());
  EXPECT_EQ(memo.size(), 1u);
  // The remembered good verdict never covers the bad signature.
  EXPECT_FALSE(check_commit(cfg(), bad, &memo).has_value());
  EXPECT_EQ(memo.size(), 1u);

  // At the memo level: a check that fails runs again every time.
  int runs = 0;
  const VerdictKey k = key_of(1);
  EXPECT_FALSE(memo.check(k, [&] { return ++runs, false; }));
  EXPECT_FALSE(memo.check(k, [&] { return ++runs, false; }));
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(memo.check(k, [&] { return ++runs, true; }));
  EXPECT_TRUE(memo.check(k, [&] { return ++runs, false; }));  // remembered
  EXPECT_EQ(runs, 3);
}

TEST_P(VerdictMemoTest, SwappedSignatureIsReverified) {
  VerdictMemo memo;
  Contrib c = make_contrib();
  SignedMessage first = signed_commit(id, 2, c.contribution);
  ASSERT_TRUE(check_commit(cfg(), first, &memo).has_value());
  ASSERT_EQ(memo.size(), 1u);

  // The same body re-signed (fresh nonce): a different fact, verified afresh.
  SignedMessage resigned = make_envelope(cfg(), b(2), first.body, 0, prng);
  ASSERT_FALSE(resigned.sig == first.sig);
  EXPECT_TRUE(check_commit(cfg(), resigned, &memo).has_value());
  EXPECT_EQ(memo.size(), 2u);

  // The same body under another server's signature, still naming rank 2:
  // nothing remembered covers it, and it fails.
  SignedMessage swapped = first;
  swapped.sig = make_envelope(cfg(), b(3), first.body, 0, prng).sig;
  EXPECT_FALSE(check_commit(cfg(), swapped, &memo).has_value());
  EXPECT_EQ(memo.size(), 2u);
}

TEST_P(VerdictMemoTest, SplicedRevealRejectedWhenEveryPartHits) {
  VerdictMemo memo;
  std::vector<Contrib> contribs;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r) {
    contribs.push_back(make_contrib());
    commits.push_back(signed_commit(id, r, contribs.back().contribution));
  }
  const InstanceId other{2, 1, 0};
  std::vector<SignedMessage> other_commits;
  for (ServerRank r = 1; r <= 3; ++r)
    other_commits.push_back(signed_commit(other, r, make_contrib().contribution));
  SignedMessage reveal = signed_reveal(id, commits);
  ASSERT_TRUE(check_reveal(cfg(), reveal, &memo).has_value());
  ASSERT_TRUE(check_reveal(cfg(), signed_reveal(other, other_commits), &memo).has_value());

  // Every commit signature below is remembered, but one commit belongs to
  // another transfer: the id-match rule still runs and rejects the reveal.
  SignedMessage spliced = signed_reveal(id, {commits[0], commits[1], other_commits[2]});
  EXPECT_FALSE(check_reveal(cfg(), spliced, &memo).has_value());

  // The §4.2.1 splice: two contributes, each valid (and remembered), that
  // embed different reveals. The same-reveal rule rejects the evidence on the
  // serial and the batch paths alike.
  SignedMessage reveal2 = signed_reveal(id, {commits[2], commits[0], commits[1]});
  SignedMessage c1 = signed_contribute(1, contribs[0], reveal);
  SignedMessage c2 = signed_contribute(2, contribs[1], reveal2);
  ASSERT_TRUE(check_contribute(cfg(), c1, &memo).has_value());
  ASSERT_TRUE(check_contribute(cfg(), c2, &memo).has_value());
  auto [payload, evidence] = blind_request({c1, c2}, {contribs[0], contribs[1]});
  EXPECT_FALSE(check_blind_sign_request(cfg(), payload, evidence, &memo));
  EXPECT_FALSE(check_blind_sign_request_batch(cfg(), payload, evidence, prng, &memo));

  // The honest evidence for the same payload shape passes on both paths.
  SignedMessage c2_same = signed_contribute(2, contribs[1], reveal);
  auto [ok_payload, ok_evidence] = blind_request({c1, c2_same}, {contribs[0], contribs[1]});
  EXPECT_TRUE(check_blind_sign_request(cfg(), ok_payload, ok_evidence, &memo));
  EXPECT_TRUE(check_blind_sign_request_batch(cfg(), ok_payload, ok_evidence, prng, &memo));
}

TEST_P(VerdictMemoTest, BadVdeRejectedWhenSignaturesHit) {
  VerdictMemo memo;
  std::vector<Contrib> contribs;
  std::vector<SignedMessage> commits;
  for (ServerRank r = 1; r <= 3; ++r) {
    contribs.push_back(make_contrib());
    commits.push_back(signed_commit(id, r, contribs.back().contribution));
  }
  SignedMessage reveal = signed_reveal(id, commits);
  SignedMessage good = signed_contribute(1, contribs[0], reveal);
  ASSERT_TRUE(check_contribute(cfg(), good, &memo).has_value());

  // Same contribution, proof for another server's context, re-signed: the
  // envelope signature is new but valid, the reveal hits, the VDE fails.
  ContributeMsg m = decode_as<ContributeMsg>(MsgType::kContribute, good.body);
  m.vde = zkp::vde_prove(cfg().a.encryption_key, m.contribution.ea, contribs[0].r1,
                         cfg().b.encryption_key, m.contribution.eb, contribs[0].r2,
                         vde_context(id, 2), prng);
  SignedMessage bad = make_envelope(cfg(), b(1), encode_body(MsgType::kContribute, m), 0, prng);
  EXPECT_FALSE(check_contribute(cfg(), bad, &memo).has_value());
  EXPECT_FALSE(check_contribute_batch(cfg(), bad, prng, &memo).has_value());
  EXPECT_TRUE(check_contribute_batch(cfg(), good, prng, &memo).has_value());
}

TEST_P(VerdictMemoTest, InstallNeverServesAnOldEpochVerdict) {
  VerdictMemo memo;
  int runs = 0;
  auto pass = [&] { return ++runs, true; };
  ASSERT_TRUE(memo.check(key_of(1, 0), pass));
  ASSERT_EQ(memo.size(), 1u);

  memo.reset(1);
  EXPECT_EQ(memo.epoch(), 1u);
  EXPECT_EQ(memo.size(), 0u);
  // An epoch-0 key on an epoch-1 memo is re-checked, and never stored.
  EXPECT_TRUE(memo.check(key_of(1, 0), pass));
  EXPECT_TRUE(memo.check(key_of(1, 0), pass));
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(memo.size(), 0u);
  // The same fact for epoch 1 is a different key.
  EXPECT_TRUE(memo.check(key_of(1, 1), pass));
  EXPECT_TRUE(memo.check(key_of(1, 1), pass));
  EXPECT_EQ(runs, 4);

  // End to end: a same-roster re-share of B installs epoch 1; every B server's
  // memo moves with it, and every transfer still completes correctly.
  SystemOptions o;
  o.params = group::GroupParams::named(GetParam());
  o.seed = 43;
  System sys(std::move(o));
  std::vector<TransferId> transfers = {sys.add_transfer(sys.config().params.g()),
                                       sys.add_transfer(sys.config().params.g())};
  std::vector<net::NodeId> roster = {sys.b_node(1), sys.b_node(2), sys.b_node(3), sys.b_node(4)};
  sys.schedule_reconfig_b(sys.make_b_spec(1, 1, roster), 50'000);
  ASSERT_TRUE(sys.run_to_completion());
  for (ServerRank r = 1; r <= 4; ++r) {
    const ProtocolServer& s = sys.b_server(r);
    EXPECT_EQ(s.config_epoch(), 1u);
    EXPECT_EQ(s.verdict_memo().epoch(), 1u);
    for (TransferId t : transfers) {
      auto res = sys.result(t, r);
      ASSERT_TRUE(res.has_value());
      EXPECT_EQ(sys.oracle_decrypt_b(*res), sys.plaintext_of(t));
    }
  }
}

TEST_P(VerdictMemoTest, OneNodesMemoNeverAnswersForAnother) {
  VerdictMemo mine;
  VerdictMemo theirs;
  SignedMessage env = signed_commit(id, 2, make_contrib().contribution);
  ASSERT_TRUE(check_commit(cfg(), env, &mine).has_value());
  int runs = 0;
  EXPECT_TRUE(theirs.check(key_of(7), [&] { return ++runs, true; }));
  EXPECT_EQ(mine.size(), 1u);
  EXPECT_EQ(theirs.size(), 1u);
  EXPECT_EQ(runs, 1);

  // In a running system every server owns its memo; each one's hits come
  // only from its own checks.
  obs::MetricsRegistry reg;
  SystemOptions o;
  o.params = group::GroupParams::named(GetParam());
  o.seed = 44;
  o.protocol.metrics = &reg;
  System sys(std::move(o));
  TransferId t = sys.add_transfer(sys.config().params.g());
  ASSERT_TRUE(sys.run_to_completion());
  ASSERT_TRUE(sys.result(t, 1).has_value());
  EXPECT_NE(&sys.b_server(1).verdict_memo(), &sys.b_server(2).verdict_memo());
  EXPECT_NE(&sys.a_server(1).verdict_memo(), &sys.b_server(1).verdict_memo());
  std::map<std::string, std::uint64_t> checks, hits;
  for (const auto& s : reg.scalar_samples()) {
    std::string node;
    for (const auto& [k, v] : s.labels) {
      if (k == "node") node = v;
    }
    if (s.name == "dblind_verify_checks_total") checks[node] += s.value;
    if (s.name == "dblind_verify_memo_hits_total") hits[node] += s.value;
  }
  ASSERT_EQ(checks.size(), 8u);  // one series set per server
  std::uint64_t total_hits = 0;
  for (const auto& [node, n] : checks) {
    EXPECT_LE(hits[node], n) << "node " << node;
    total_hits += hits[node];
  }
  EXPECT_GT(total_hits, 0u);  // repeated evidence is served from the memo
}

TEST_P(VerdictMemoTest, CapacityBoundHolds) {
  VerdictMemo memo(8);
  int runs = 0;
  auto pass = [&] { return ++runs, true; };
  for (std::uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(memo.check(key_of(i), pass));
    EXPECT_LE(memo.size(), 8u);
  }
  EXPECT_EQ(memo.size(), 8u);
  EXPECT_EQ(runs, 20);
  // Keys 12..19 survive; touching 12 makes it the most recently used, so the
  // next insertion evicts 13 instead.
  EXPECT_TRUE(memo.check(key_of(12), pass));
  EXPECT_EQ(runs, 20);
  EXPECT_TRUE(memo.check(key_of(20), pass));
  EXPECT_EQ(runs, 21);
  EXPECT_TRUE(memo.check(key_of(12), pass));
  EXPECT_EQ(runs, 21);
  EXPECT_TRUE(memo.check(key_of(13), pass));
  EXPECT_EQ(runs, 22);
  EXPECT_TRUE(memo.check(key_of(0), pass));
  EXPECT_EQ(runs, 23);
  EXPECT_EQ(memo.size(), 8u);
}

TEST_P(VerdictMemoTest, CachedFeldmanKeysMatchAndShareChecksAgree) {
  VerdictMemo memo;
  const threshold::FeldmanCommitments& enc = cfg().a.enc_commitments;
  const threshold::FeldmanCommitments& sign = cfg().a.sign_commitments;
  for (int pass = 0; pass < 2; ++pass) {  // second pass is served from the cache
    for (std::uint32_t i : {0u, 1u, 2u, 3u, 4u, 1000u}) {
      EXPECT_EQ(memo.feldman_key(ts.params, enc, i), threshold::feldman_eval(ts.params, enc, i));
      EXPECT_EQ(memo.feldman_key(ts.params, sign, i), threshold::feldman_eval(ts.params, sign, i));
    }
  }
  memo.reset(1);
  EXPECT_EQ(memo.feldman_key(ts.params, enc, 2), threshold::feldman_eval(ts.params, enc, 2));

  // Decryption shares: same verdicts with and without the memo, and a
  // remembered good share never covers a tampered one.
  elgamal::Ciphertext c = cfg().a.encryption_key.encrypt(ts.params.g(), prng);
  threshold::DecryptionShare good = threshold::make_decryption_share(
      ts.params, c, ts.a_secrets[1].enc_share, "ctx", prng);
  threshold::DecryptionShare bad = good;
  bad.d = ts.params.mul(bad.d, ts.params.g());
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_TRUE(decryption_share_ok(ts.params, cfg().a, c, good, "ctx", &memo));
    EXPECT_TRUE(decryption_share_ok(ts.params, cfg().a, c, good, "ctx"));
    EXPECT_FALSE(decryption_share_ok(ts.params, cfg().a, c, bad, "ctx", &memo));
    EXPECT_FALSE(decryption_share_ok(ts.params, cfg().a, c, good, "other-ctx", &memo));
  }
  EXPECT_EQ(memo.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, VerdictMemoTest,
                         ::testing::Values(ParamId::kToy64, ParamId::kEc255),
                         [](const auto& info) {
                           return info.param == ParamId::kEc255 ? "ec255" : "modp";
                         });

}  // namespace
}  // namespace dblind::core
