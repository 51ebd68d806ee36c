// Verify each fact once: a per-node memo of positive verification verdicts.
//
// Figure 5 makes every message self-verifying, so evidence travels with the
// messages that cite it: a reveal carries 2f+1 commits, a contribute carries
// the reveal, a blind-sign request carries f+1 contributes, and a done-sign
// request carries the service-signed blind plus f+1 decryption shares.
// Retransmissions and network duplicates repeat all of it. Without a memo a
// server re-verifies every embedded signature and proof each time it sees it.
//
// A VerdictMemo remembers that a cryptographic check PASSED. The key is a
// SHA-256 over everything the verdict depends on:
//
//   kind ‖ config epoch ‖ verifying key (service, rank, key bytes)
//        ‖ the exact signed / proved bytes ‖ the signature / proof bytes
//
// Rules that keep accept/reject decisions identical with and without a memo:
//   * Only verdicts this node computed itself go in, and only positive ones.
//     The sole way to store a verdict is check()/check_all(), which store iff
//     the check they ran returned true (lint_crypto.py rule memo-epoch).
//   * The key covers the signature or proof bytes, so the same body under a
//     swapped signature is a different fact and is verified afresh.
//   * Structural rules (I6 epoch match, same-reveal, commitment match, quorum
//     sizes, distinct signers) are not facts about bytes: the check_*
//     functions run them on every call. The memo only short-circuits the
//     signature or proof verification itself.
//   * Every key carries the config epoch, a key from another epoch is neither
//     served nor stored, and the install cascade resets the memo to the new
//     epoch (next to GroupParams::reset_base_caches), so no verdict from
//     epoch e is ever served at e+1.
//
// The memo also caches each rank's Feldman verification key h_i = g^{f(i)}
// per commitment vector, computed lazily on first use, so decryption-share
// and partial-signature checks stop re-deriving it by Horner in the exponent.
//
// Scope and lifetime: one memo per ProtocolServer, never shared between
// nodes; volatile (restore() and every install reset it). The handler thread
// and the VerifyPool workers both consult it, so its tables sit under a
// dblind::Mutex; the checks themselves always run outside the lock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "core/types.hpp"
#include "hash/sha256.hpp"
#include "obs/metrics.hpp"
#include "threshold/feldman.hpp"

namespace dblind::core {

// What a remembered verdict vouches for.
enum class VerdictKind : std::uint8_t {
  kEnvelope = 0,  // ⟨m⟩_i server signature over epoch ‖ body
  kServiceSig,    // ⟨m⟩_S threshold service signature (blind, done)
  kVde,           // a contribute's verifiable dual encryption proof
  kDecryptShare,  // a threshold decryption share and its Chaum-Pedersen proof
};
inline constexpr std::size_t kVerdictKinds = 4;

// Stable metric-label name of a kind.
[[nodiscard]] const char* verdict_kind_name(VerdictKind kind);

struct VerdictKey {
  VerdictKind kind{};
  ConfigEpoch epoch = 0;
  hash::Digest digest{};
};

// Builds a VerdictKey. The config epoch is a constructor argument, so a key
// cannot be built without one; every part is length-prefixed so that no two
// different part sequences hash alike.
class VerdictKeyBuilder {
 public:
  VerdictKeyBuilder(VerdictKind kind, ConfigEpoch epoch);

  VerdictKeyBuilder& add(std::uint32_t v);
  VerdictKeyBuilder& add(std::span<const std::uint8_t> bytes);
  VerdictKeyBuilder& add(const mpz::Bigint& v);

  [[nodiscard]] VerdictKey finish();

 private:
  VerdictKind kind_;
  ConfigEpoch epoch_;
  hash::Sha256 h_;
};

class VerdictMemo {
 public:
  // A fresh System holds about a thousand verdicts per node; the bound only
  // matters for long-lived deployments, where least-recently-used verdicts go
  // first.
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit VerdictMemo(std::size_t capacity = kDefaultCapacity);
  VerdictMemo(const VerdictMemo&) = delete;
  VerdictMemo& operator=(const VerdictMemo&) = delete;

  // The config epoch whose verdicts this memo may hold.
  [[nodiscard]] ConfigEpoch epoch() const EXCLUDES(mu_);

  // Returns true if `key` is remembered; otherwise runs `run()` and
  // remembers `key` iff it returned true.
  template <typename Check>
  bool check(const VerdictKey& key, Check&& run) EXCLUDES(mu_);

  // Batch form: `run(misses)` receives the positions of the keys that are not
  // remembered (it is not called when there are none); if it returns true,
  // every one of them is remembered.
  template <typename Check>
  bool check_all(std::span<const VerdictKey> keys, Check&& run) EXCLUDES(mu_);

  // Drops every verdict and cached verification key; from now on only keys
  // built for `epoch` are served or stored.
  void reset(ConfigEpoch epoch) EXCLUDES(mu_);

  // h_i = feldman_eval(commitments, index), cached per commitment vector.
  [[nodiscard]] mpz::Bigint feldman_key(const group::GroupParams& params,
                                        const threshold::FeldmanCommitments& commitments,
                                        std::uint32_t index) EXCLUDES(mu_);

  // dblind_verify_checks_total{kind} / dblind_verify_memo_hits_total{kind}.
  // Default handles discard into the process-wide cell.
  void set_metrics(obs::MetricsRegistry& reg, const obs::LabelSet& labels);

  [[nodiscard]] std::size_t size() const EXCLUDES(mu_);

 private:
  struct DigestHash {
    std::size_t operator()(const hash::Digest& d) const noexcept;
  };
  // Per commitment vector: lazily filled h_i by index. Indices above
  // kMaxCachedIndex (never a real rank) are computed but not cached, so a
  // forged index cannot grow the table.
  struct KeyTable {
    threshold::FeldmanCommitments commitments;
    std::vector<std::optional<mpz::Bigint>> keys;  // [index], nullopt = not yet computed
  };
  static constexpr std::uint32_t kMaxCachedIndex = 256;
  static constexpr std::size_t kMaxKeyTables = 8;

  // Counts the lookup; true (and marks it recently used) if remembered.
  bool seen(const VerdictKey& key) EXCLUDES(mu_);
  // Stores a verdict. Called only by check()/check_all() after their check
  // passed.
  void remember_verified(const VerdictKey& key) EXCLUDES(mu_);
  void insert_locked(const VerdictKey& key) REQUIRES(mu_);
  KeyTable* table_locked(const threshold::FeldmanCommitments& commitments) REQUIRES(mu_);

  const std::size_t capacity_;
  mutable Mutex mu_;
  ConfigEpoch epoch_ GUARDED_BY(mu_) = 0;
  // Most recently used at the front.
  std::list<hash::Digest> order_ GUARDED_BY(mu_);
  std::unordered_map<hash::Digest, std::list<hash::Digest>::iterator, DigestHash> index_
      GUARDED_BY(mu_);
  std::vector<KeyTable> key_tables_ GUARDED_BY(mu_);
  std::array<obs::Counter, kVerdictKinds> checks_;
  std::array<obs::Counter, kVerdictKinds> hits_;
};

template <typename Check>
bool VerdictMemo::check(const VerdictKey& key, Check&& run) {
  if (seen(key)) return true;
  if (!run()) return false;
  remember_verified(key);
  return true;
}

template <typename Check>
bool VerdictMemo::check_all(std::span<const VerdictKey> keys, Check&& run) {
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!seen(keys[i])) misses.push_back(i);
  }
  if (misses.empty()) return true;
  if (!run(std::span<const std::size_t>(misses))) return false;
  for (std::size_t i : misses) remember_verified(keys[i]);
  return true;
}

}  // namespace dblind::core
