#include "core/verdict_memo.hpp"

#include <algorithm>
#include <cstring>

namespace dblind::core {

const char* verdict_kind_name(VerdictKind kind) {
  switch (kind) {
    case VerdictKind::kEnvelope: return "envelope";
    case VerdictKind::kServiceSig: return "service_sig";
    case VerdictKind::kVde: return "vde";
    case VerdictKind::kDecryptShare: return "decrypt_share";
  }
  return "other";
}

VerdictKeyBuilder::VerdictKeyBuilder(VerdictKind kind, ConfigEpoch epoch)
    : kind_(kind), epoch_(epoch) {
  const std::uint8_t tag = static_cast<std::uint8_t>(kind);
  h_.update(std::span<const std::uint8_t>(&tag, 1));
  add(epoch);
}

VerdictKeyBuilder& VerdictKeyBuilder::add(std::uint32_t v) {
  const std::array<std::uint8_t, 4> le{
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  h_.update(le);
  return *this;
}

VerdictKeyBuilder& VerdictKeyBuilder::add(std::span<const std::uint8_t> bytes) {
  add(static_cast<std::uint32_t>(bytes.size()));
  h_.update(bytes);
  return *this;
}

VerdictKeyBuilder& VerdictKeyBuilder::add(const mpz::Bigint& v) {
  // The sign is part of the value: x and -x must never share a key.
  add(static_cast<std::uint32_t>(v.is_negative() ? 1 : 0));
  return add(std::span<const std::uint8_t>(v.to_bytes_be()));
}

VerdictKey VerdictKeyBuilder::finish() { return {kind_, epoch_, h_.finish()}; }

std::size_t VerdictMemo::DigestHash::operator()(const hash::Digest& d) const noexcept {
  std::size_t out = 0;
  std::memcpy(&out, d.data(), sizeof out);
  return out;
}

VerdictMemo::VerdictMemo(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

ConfigEpoch VerdictMemo::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

bool VerdictMemo::seen(const VerdictKey& key) {
  const auto k = static_cast<std::size_t>(key.kind);
  checks_[k].inc();
  MutexLock lock(mu_);
  if (key.epoch != epoch_) return false;
  auto it = index_.find(key.digest);
  if (it == index_.end()) return false;
  order_.splice(order_.begin(), order_, it->second);
  hits_[k].inc();
  return true;
}

void VerdictMemo::remember_verified(const VerdictKey& key) {
  MutexLock lock(mu_);
  // A key built before an install (a worker that finished after the reset)
  // is dropped rather than stored under the new epoch.
  if (key.epoch != epoch_) return;
  insert_locked(key);
}

void VerdictMemo::insert_locked(const VerdictKey& key) {
  auto it = index_.find(key.digest);
  if (it != index_.end()) {
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  if (index_.size() >= capacity_) {
    index_.erase(order_.back());
    order_.pop_back();
  }
  order_.push_front(key.digest);
  index_.emplace(key.digest, order_.begin());
}

void VerdictMemo::reset(ConfigEpoch epoch) {
  MutexLock lock(mu_);
  epoch_ = epoch;
  order_.clear();
  index_.clear();
  key_tables_.clear();
}

mpz::Bigint VerdictMemo::feldman_key(const group::GroupParams& params,
                                     const threshold::FeldmanCommitments& commitments,
                                     std::uint32_t index) {
  {
    MutexLock lock(mu_);
    const KeyTable* t = table_locked(commitments);
    if (t != nullptr && index < t->keys.size() && t->keys[index].has_value())
      return *t->keys[index];
  }
  mpz::Bigint h_i = threshold::feldman_eval(params, commitments, index);
  if (index > kMaxCachedIndex) return h_i;
  MutexLock lock(mu_);
  KeyTable* t = table_locked(commitments);
  if (t == nullptr) {
    if (key_tables_.size() >= kMaxKeyTables) return h_i;
    t = &key_tables_.emplace_back(KeyTable{commitments, {}});
  }
  if (t->keys.size() <= index) t->keys.resize(index + 1);
  t->keys[index] = h_i;
  return h_i;
}

VerdictMemo::KeyTable* VerdictMemo::table_locked(
    const threshold::FeldmanCommitments& commitments) {
  for (KeyTable& t : key_tables_) {
    if (t.commitments == commitments) return &t;
  }
  return nullptr;
}

void VerdictMemo::set_metrics(obs::MetricsRegistry& reg, const obs::LabelSet& labels) {
  for (std::size_t k = 0; k < kVerdictKinds; ++k) {
    obs::LabelSet by_kind = labels;
    by_kind.emplace_back("kind", verdict_kind_name(static_cast<VerdictKind>(k)));
    checks_[k] = reg.counter("dblind_verify_checks_total", by_kind);
    hits_[k] = reg.counter("dblind_verify_memo_hits_total", by_kind);
  }
}

std::size_t VerdictMemo::size() const {
  MutexLock lock(mu_);
  return index_.size();
}

}  // namespace dblind::core
