// Per-layer timings, taken from outside: each row calls one public function
// of a layer on seeded inputs, in rounds, and reports the median per-call
// time over the rounds. Every row of group, elgamal, zkp and threshold
// exists once per backend, with the suffix .ec255 or .modp2048.
#include <array>
#include <string>

#include "elgamal/elgamal.hpp"
#include "group/ristretto.hpp"
#include "hash/sha256.hpp"
#include "mpz/fe25519.hpp"
#include "mpz/montgomery.hpp"
#include "threshold/keygen.hpp"
#include "threshold/thresh_decrypt.hpp"
#include "zkp/batch.hpp"
#include "zkp/chaum_pedersen.hpp"
#include "zkp/schnorr.hpp"
#include "zkp/vde.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace threshold = dblind::threshold;
namespace zkp = dblind::zkp;
namespace hash = dblind::hash;
namespace ec = dblind::group::ec;
using mpz::Bigint;

// Keeps a result observable so the call that produced it cannot be elided.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// Median per-call seconds of `op` over `rounds` rounds. A round repeats the
// call until it has taken `round_s` (at least once), so cheap calls are
// timed in bulk and expensive ones one at a time.
template <typename F>
double time_call(Spans& spans, const std::string& name, F&& op, int rounds = 5,
                 double round_s = 0.01) {
  Spans::Scope span(spans, name);
  op();  // warm-up: lazily built tables and caches are not what is measured
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::size_t calls = 0;
    do {
      op();
      ++calls;
    } while (seconds_since(t0) < round_s);
    per_call.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

void time_mpz(Spans& spans, Report& report, mpz::Prng& in) {
  const group::GroupParams p2048 = group::GroupParams::named(group::ParamId::kSec2048);
  const mpz::MontgomeryCtx ctx(p2048.p());
  const Bigint a = in.uniform_below(p2048.p());
  const Bigint e = in.uniform_below(p2048.q());
  // One modexp with a full-length exponent; the Montgomery-multiplication
  // cost is that time over the multiplications the context counted for it
  // (MontgomeryCtx::mul itself adds conversions in and out of Montgomery
  // form, which the exponentiation loop does not pay per step).
  const std::uint64_t muls0 = ctx.mul_count();
  keep(ctx.pow(a, e));
  const auto muls_per_pow = static_cast<double>(ctx.mul_count() - muls0);
  const double pow_s = time_call(spans, "mpz.modexp_2048", [&] { keep(ctx.pow(a, e)); }, 3);
  report.set("mpz.modexp_2048_us", pow_s * 1e6, "us");
  report.set("mpz.mont_mul_2048_ns", pow_s * 1e9 / muls_per_pow, "ns");

  std::array<std::uint8_t, 32> bytes{};
  in.fill(bytes);
  bytes[31] &= 0x7f;
  mpz::Fe25519 x = mpz::fe_from_bytes(bytes);
  in.fill(bytes);
  bytes[31] &= 0x7f;
  const mpz::Fe25519 y = mpz::fe_from_bytes(bytes);
  // A dependent chain of 256 products per call, so the loop measures
  // multiplication latency rather than call overhead.
  report.set("mpz.fe_mul_ns",
             time_call(spans, "mpz.fe_mul",
                       [&] {
                         for (int i = 0; i < 256; ++i) x = mpz::fe_mul(x, y);
                         keep(x);
                       }) *
                 1e9 / 256,
             "ns");
  report.set("mpz.fe_invsqrt_us",
             time_call(spans, "mpz.fe_invsqrt",
                       [&] { keep(mpz::fe_sqrt_ratio_m1(mpz::Fe25519::one(), y)); }) *
                 1e6,
             "us");
}

void time_hash(Spans& spans, Report& report, mpz::Prng& in) {
  std::vector<std::uint8_t> buf(64 * 1024);
  in.fill(buf);
  const double s = time_call(spans, "hash.sha256", [&] { keep(hash::Sha256::digest(buf)); });
  report.set("hash.sha256_ns_per_byte", s * 1e9 / static_cast<double>(buf.size()), "ns");
}

void time_backend(Spans& spans, Report& report, mpz::Prng& in, group::ParamId id,
                  const std::string& suffix) {
  const group::GroupParams gp = group::GroupParams::named(id);
  const bool modp = gp.backend_kind() == group::Kind::kModP;
  auto row = [&](const std::string& layer_op, auto&& op, int rounds = 5) {
    // layer_op is e.g. "group.mul"; the metric is group.mul_us.<suffix>.
    report.set(layer_op + "_us." + suffix,
               time_call(spans, layer_op + "." + suffix, op, rounds) * 1e6, "us");
  };
  const int slow = modp ? 3 : 5;  // fewer rounds where one call takes milliseconds
  // The timed verifiers must be timed on inputs they accept.
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) report.violation(what + " rejects a valid input (" + suffix + ")");
  };

  // group
  const Bigint x = gp.random_element(in);
  const Bigint y = gp.random_element(in);
  const Bigint e1 = gp.random_exponent(in);
  std::vector<Bigint> bases4;
  std::vector<Bigint> exps4;
  for (int i = 0; i < 4; ++i) {
    bases4.push_back(gp.random_element(in));
    exps4.push_back(gp.random_exponent(in));
  }
  row("group.mul", [&] { keep(gp.mul(x, y)); });
  row("group.pow", [&] { keep(gp.pow(x, e1)); }, slow);
  row("group.pow_g", [&] { keep(gp.pow_g(e1)); }, slow);
  row("group.multi_pow4", [&] { keep(gp.multi_pow(bases4, exps4)); }, slow);
  const std::vector<std::uint8_t> wire = gp.element_bytes(x);
  if (modp) {
    // The wire form of a mod-p element is its fixed-width residue; decoding
    // it is parsing plus the subgroup-membership check a receiver must make.
    row("group.encode", [&] { keep(gp.element_bytes(x)); });
    row("group.decode", [&] {
      const Bigint v = Bigint::from_bytes_be(wire);
      keep(gp.in_group(v));
    }, slow);
  } else {
    ec::EncodedPoint enc{};
    std::copy(wire.begin(), wire.end(), enc.begin());
    const ec::Point pt = *ec::decode(enc);
    row("group.encode", [&] { keep(ec::encode(pt)); });
    row("group.decode", [&] { keep(ec::decode(enc)); });
  }

  // elgamal
  const elgamal::KeyPair kp = elgamal::KeyPair::generate(gp, in);
  const Bigint m = random_plaintext(gp, in);
  const elgamal::Ciphertext c = kp.public_key().encrypt(m, in);
  row("elgamal.encrypt", [&] { keep(kp.public_key().encrypt(m, in)); }, slow);
  row("elgamal.decrypt", [&] { keep(kp.decrypt(c)); }, slow);

  // zkp
  const zkp::SchnorrSigningKey sk = zkp::SchnorrSigningKey::generate(gp, in);
  const std::vector<std::uint8_t> msg(200, 0x5a);
  const zkp::SchnorrSignature sig = sk.sign(msg, in);
  expect(sk.verify_key().verify(msg, sig), "zkp::SchnorrVerifyKey::verify");
  row("zkp.schnorr_sign", [&] { keep(sk.sign(msg, in)); }, slow);
  row("zkp.schnorr_verify", [&] { keep(sk.verify_key().verify(msg, sig)); }, slow);

  const Bigint w = gp.random_exponent(in);
  const zkp::DlogStatement stmt{gp.g(), gp.pow_g(w), y, gp.pow(y, w)};
  const std::string ctx = "perfbench/cp";
  const zkp::DlogEqProof proof = zkp::dlog_prove(gp, stmt, w, ctx, in);
  expect(zkp::dlog_verify(gp, stmt, proof, ctx), "zkp::dlog_verify");
  row("zkp.cp_prove", [&] { keep(zkp::dlog_prove(gp, stmt, w, ctx, in)); }, slow);
  row("zkp.cp_verify", [&] { keep(zkp::dlog_verify(gp, stmt, proof, ctx)); }, slow);

  const elgamal::KeyPair kb = elgamal::KeyPair::generate(gp, in);
  const Bigint rho = random_plaintext(gp, in);
  const Bigint r1 = gp.random_exponent(in);
  const Bigint r2 = gp.random_exponent(in);
  const elgamal::Ciphertext ca = kp.public_key().encrypt_with_nonce(rho, r1);
  const elgamal::Ciphertext cb = kb.public_key().encrypt_with_nonce(rho, r2);
  const std::string vctx = "perfbench/vde";
  const zkp::VdeProof vproof =
      zkp::vde_prove(kp.public_key(), ca, r1, kb.public_key(), cb, r2, vctx, in);
  expect(zkp::vde_verify(kp.public_key(), ca, kb.public_key(), cb, vproof, vctx),
         "zkp::vde_verify");
  row("zkp.vde_prove", [&] {
    keep(zkp::vde_prove(kp.public_key(), ca, r1, kb.public_key(), cb, r2, vctx, in));
  }, slow);
  row("zkp.vde_verify", [&] {
    keep(zkp::vde_verify(kp.public_key(), ca, kb.public_key(), cb, vproof, vctx));
  }, slow);

  // Eight independent proofs in one random-linear-combination check.
  constexpr int kBatch = 8;
  std::vector<zkp::CpBatchItem> items;
  for (int i = 0; i < kBatch; ++i) {
    const Bigint wi = gp.random_exponent(in);
    const Bigint base2 = gp.random_element(in);
    zkp::DlogStatement s{gp.g(), gp.pow_g(wi), base2, gp.pow(base2, wi)};
    const std::string ci = "perfbench/batch/" + std::to_string(i);
    zkp::DlogEqProof p = zkp::dlog_prove(gp, s, wi, ci, in);
    items.push_back(zkp::CpBatchItem{std::move(s), std::move(p), ci});
  }
  expect(zkp::cp_batch_verify(gp, items, in), "zkp::cp_batch_verify");
  report.set("zkp.cp_batch_verify_us_per_item." + suffix,
             time_call(spans, "zkp.cp_batch_verify." + suffix,
                       [&] { keep(zkp::cp_batch_verify(gp, items, in)); }, slow) *
                 1e6 / kBatch,
             "us");

  // threshold, on a (4, 1) service key like the workloads'
  const threshold::ServiceConfig cfg{4, 1};
  const auto key = threshold::ServiceKeyMaterial::dealer_keygen(gp, cfg, in);
  const elgamal::Ciphertext kc = key.public_key().encrypt(m, in);
  const std::string dctx = "perfbench/decrypt";
  std::uint32_t index = 0;
  row("threshold.feldman_eval", [&] {
    index = index % 4 + 1;
    keep(threshold::feldman_eval(gp, key.commitments(), index));
  });
  const threshold::DecryptionShare d1 =
      threshold::make_decryption_share(gp, kc, key.share_of(1), dctx, in);
  const threshold::DecryptionShare d2 =
      threshold::make_decryption_share(gp, kc, key.share_of(2), dctx, in);
  expect(threshold::verify_decryption_share(gp, key.commitments(), kc, d1, dctx),
         "threshold::verify_decryption_share");
  row("threshold.decryption_share", [&] {
    keep(threshold::make_decryption_share(gp, kc, key.share_of(1), dctx, in));
  }, slow);
  row("threshold.verify_decryption_share", [&] {
    keep(threshold::verify_decryption_share(gp, key.commitments(), kc, d1, dctx));
  }, slow);
  const std::vector<threshold::DecryptionShare> quorum = {d1, d2};
  if (threshold::combine_decryption(gp, kc, quorum) != m)
    report.violation("threshold decryption of the layer-timing ciphertext (" + suffix +
                     ") does not give the plaintext back");
  row("threshold.combine", [&] { keep(threshold::combine_decryption(gp, kc, quorum)); }, slow);
  report.set("threshold.dkg_ms." + suffix,
             time_call(spans, "threshold.dkg." + suffix,
                       [&] { keep(threshold::run_joint_feldman_dkg(gp, cfg, in)); }, 3) *
                 1e3,
             "ms");
}

}  // namespace

void run_layer_timings(const Args& args, Report& report, Spans& spans) {
  Spans::Scope span(spans, "layers");
  Inputs inputs(args.seed);
  mpz::Prng in = inputs.stream("layers");
  time_mpz(spans, report, in);
  time_hash(spans, report, in);
  time_backend(spans, report, in, group::ParamId::kEc255, "ec255");
  // Smoke runs swap the 2048-bit group for the toy one: same code, seconds
  // less. The rows keep their names; only the smoke check reads them.
  time_backend(spans, report, in,
               args.smoke ? group::ParamId::kToy64 : group::ParamId::kSec2048, "modp2048");
}

}  // namespace perfbench
