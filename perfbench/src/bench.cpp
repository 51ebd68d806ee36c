#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/codec.hpp"

namespace perfbench {

Spans::Scope::Scope(Spans& s, std::string name) : spans_(s) {
  if (!s.enabled_) return;
  active_ = true;
  std::lock_guard<std::mutex> lock(s.mu_);
  Span span;
  span.name = std::move(name);
  span.id = s.spans_.size() + 1;
  span.parent = s.open_.empty() ? 0 : s.spans_[s.open_.back()].id;
  span.start_us = s.at_us(Clock::now());
  index_ = s.spans_.size();
  s.spans_.push_back(std::move(span));
  s.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (!active_) return;
  std::lock_guard<std::mutex> lock(spans_.mu_);
  spans_.spans_[index_].end_us = spans_.at_us(Clock::now());
  spans_.open_.pop_back();
}

void Spans::add(std::string name, Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), spans_.size() + 1, 0, at_us(start), at_us(end)});
}

void Spans::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"start_us\":%.3f,"
                  "\"end_us\":%.3f}",
                  s.name.c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.start_us, s.end_us);
    out << line << '\n';
  }
}

std::vector<std::string> Spans::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  struct Row {
    std::size_t count = 0;
    double total_us = 0;
    double child_us = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& r = rows[s.name];
    ++r.count;
    r.total_us += s.end_us - s.start_us;
    if (s.parent != 0) rows[spans_[s.parent - 1].name].child_us += s.end_us - s.start_us;
  }
  std::vector<std::string> out;
  for (const auto& [name, r] : rows) {
    char line[256];
    std::snprintf(line, sizeof line, "span %-36s n=%-6zu total=%10.2f ms  self=%10.2f ms",
                  name.c_str(), r.count, r.total_us / 1e3, (r.total_us - r.child_us) / 1e3);
    out.emplace_back(line);
  }
  return out;
}

mpz::Bigint random_plaintext(const group::GroupParams& params, mpz::Prng& prng) {
  for (;;) {
    mpz::Bigint v = prng.uniform_below(params.max_message_value()) + mpz::Bigint(1);
    mpz::Bigint m = params.encode_message(v);
    if (!params.is_identity(m)) return m;
  }
}

std::vector<std::uint64_t> poisson_arrivals(mpz::Prng& prng, std::size_t n, double mean_gap_us) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Inverse-CDF sample from 53 uniform bits; 1 - u is never 0.
    const double u =
        static_cast<double>(prng.uniform_u64(1ull << 53)) / static_cast<double>(1ull << 53);
    t += -std::log(1.0 - u) * mean_gap_us;
    // Arrival 0 would mean "registered before the run"; every transfer of an
    // open loop arrives while the system is running.
    out.push_back(1 + static_cast<std::uint64_t>(t));
  }
  return out;
}

std::optional<std::map<core::TransferId, elgamal::Ciphertext>> stored_ciphertexts(
    const std::vector<std::uint8_t>& snapshot) {
  // Layout (ProtocolServer::snapshot, version 1): u8 version, then
  // u32 count × (u64 transfer, ciphertext) for ciphertexts already stored,
  // then u32 count × (u64 transfer, ciphertext, u64 due time) for ones not
  // yet due.
  try {
    dblind::common::Reader r(snapshot);
    if (r.u8() != 1) return std::nullopt;
    std::map<core::TransferId, elgamal::Ciphertext> out;
    for (int section = 0; section < 2; ++section) {
      const std::uint32_t count = r.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const core::TransferId t = r.u64();
        elgamal::Ciphertext c;
        c.a = r.bigint();
        c.b = r.bigint();
        if (section == 1) (void)r.u64();
        out.emplace(t, std::move(c));
      }
    }
    return out;
  } catch (const dblind::common::CodecError&) {
    return std::nullopt;
  }
}

bool check_transfer(const TransferExpect& t, const group::GroupParams& params,
                    const Decrypt& decrypt_b,
                    std::map<std::vector<std::uint8_t>, core::TransferId>& first_components,
                    Report& report) {
  const std::string id = "transfer " + std::to_string(t.transfer);
  for (const auto& r : t.results) {
    if (!r) return false;  // did not complete: counted as failed, not checked
  }
  if (t.results.empty()) return false;
  const elgamal::Ciphertext& first = *t.results.front();
  for (const auto& r : t.results) {
    if (params.element_bytes(r->a) != params.element_bytes(first.a) ||
        params.element_bytes(r->b) != params.element_bytes(first.b)) {
      report.violation(id + ": honest B servers hold different results");
      break;
    }
  }
  for (const auto& r : t.results) {
    if (decrypt_b(*r) != t.plaintext) {
      report.violation(id + ": result does not decrypt under B's key to the plaintext");
      break;
    }
  }
  if (!t.ea) {
    report.violation(id + ": no E_A(m) found at A to compare the result against");
  } else if (t.ea->a == first.a) {
    report.violation(id + ": result shares its first component with E_A(m)");
  }
  auto [it, fresh] = first_components.emplace(params.element_bytes(first.a), t.transfer);
  if (!fresh) {
    report.violation(id + ": result shares its first component with transfer " +
                     std::to_string(it->second));
  }
  return true;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string latency_note(const std::vector<double>& ms) {
  char line[160];
  const std::size_t n = ms.size();
  if (n < 40) {
    std::snprintf(line, sizeof line, "latency: p50 %.3f ms over %zu transfers", median(ms), n);
  } else {
    // Highest whole percentile q with n * (1 - q/100) >= 10.
    const int q = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
    std::snprintf(line, sizeof line, "latency: p50 %.3f ms, p%d %.3f ms over %zu transfers",
                  median(ms), q, percentile(ms, q / 100.0), n);
  }
  return line;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
