// ec255-threaded-client: eight ProtocolServers, each on its own
// net::ThreadedBus thread, serve one core::ClientNode at a time. The client
// publishes E_A(m), polls B for the service-signed done, and
// threshold-decrypts E_B(m) itself; the next client starts when the previous
// one holds its plaintext (closed loop, one client). Latency is real time
// from publish to plaintext.
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/client.hpp"
#include "core/server.hpp"
#include "net/threaded_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "threshold/keygen.hpp"
#include "threshold/shamir.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace net = dblind::net;
namespace obs = dblind::obs;
namespace threshold = dblind::threshold;
namespace zkp = dblind::zkp;

constexpr std::size_t kServers = 4;  // per service; (n, f) = (4, 1)
// How often a client asks B for its result. The client learns of the result
// only by polling, so this bounds how far the measured latency can trail
// the services; 2 ms is a small fraction of their ~35 ms on this backend.
constexpr net::Time kPollInterval = 2'000;
constexpr int kTokenShift = 48;  // timer token = client generation << 48 | client token
constexpr std::size_t kClientsPerSession = 100;

// Key material and servers of one deployment, on one bus.
struct Deployment {
  core::SystemConfig cfg;
  mpz::Bigint b_private;  // reconstructed from B's shares: the test oracle
  std::unique_ptr<net::ThreadedBus> bus;
  std::vector<core::ProtocolServer*> a_servers;
  std::vector<core::ProtocolServer*> b_servers;
};

struct ServiceSetup {
  core::ServicePublic pub;
  std::vector<core::ServerSecrets> secrets;
  mpz::Bigint private_key;
};

ServiceSetup make_service(const group::GroupParams& params, core::ServiceRole role,
                          net::NodeId first_node, mpz::Prng& prng) {
  const threshold::ServiceConfig cfg{kServers, 1};
  const auto enc = threshold::ServiceKeyMaterial::dealer_keygen(params, cfg, prng);
  const auto sig = threshold::ServiceKeyMaterial::dealer_keygen(params, cfg, prng);
  ServiceSetup out{core::ServicePublic{cfg,
                                       enc.public_key(),
                                       enc.commitments(),
                                       zkp::SchnorrVerifyKey(params, sig.public_key().y()),
                                       sig.commitments(),
                                       {},
                                       first_node,
                                       {}},
                   {},
                   {}};
  std::vector<threshold::Share> quorum;
  for (core::ServerRank r = 1; r <= kServers; ++r) {
    const auto server_key = zkp::SchnorrSigningKey::generate(params, prng);
    out.pub.server_sign_keys.push_back(server_key.verify_key());
    out.secrets.push_back(
        core::ServerSecrets{role, r, enc.share_of(r), sig.share_of(r), server_key.secret()});
    if (r <= cfg.quorum()) quorum.push_back(enc.share_of(r));
  }
  out.private_key = threshold::shamir_reconstruct(quorum, params.q());
  return out;
}

// Sets up both services and constructs every server on a fresh bus. Nodes
// 0..3 are A ranks 1..4, nodes 4..7 are B ranks 1..4; the client is added
// by the caller as node 8.
std::unique_ptr<Deployment> deploy(mpz::Prng& inputs, const core::ProtocolOptions& opts) {
  const group::GroupParams params = group::GroupParams::named(group::ParamId::kEc255);
  ServiceSetup a = make_service(params, core::ServiceRole::kServiceA, 0, inputs);
  ServiceSetup b = make_service(params, core::ServiceRole::kServiceB, kServers, inputs);
  auto d = std::make_unique<Deployment>(
      Deployment{core::SystemConfig{params, std::move(a.pub), std::move(b.pub)}, b.private_key,
                 std::make_unique<net::ThreadedBus>(inputs.next_u64()), {}, {}});
  for (const auto& [secrets, list] :
       {std::pair{&a.secrets, &d->a_servers}, std::pair{&b.secrets, &d->b_servers}}) {
    for (const core::ServerSecrets& s : *secrets) {
      auto node = std::make_unique<core::ProtocolServer>(d->cfg, s, opts);
      list->push_back(node.get());
      d->bus->add_node(std::move(node));
    }
  }
  return d;
}

// What the clients themselves sent, so that the traffic figures can leave
// the client's polling out.
struct ClientTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// Forwards to the transport's context, tagging timer tokens with the
// generation of the client that armed them and counting what it sends.
class TaggedContext final : public net::Context {
 public:
  TaggedContext(net::Context& inner, std::uint64_t generation, ClientTraffic& traffic)
      : inner_(inner), generation_(generation), traffic_(traffic) {}
  void send(net::NodeId to, std::vector<std::uint8_t> bytes) override {
    ++traffic_.messages;
    traffic_.bytes += bytes.size();
    inner_.send(to, std::move(bytes));
  }
  void set_timer(net::Time delay, std::uint64_t token) override {
    inner_.set_timer(delay, generation_ << kTokenShift | token);
  }
  [[nodiscard]] net::Time now() const override { return inner_.now(); }
  [[nodiscard]] net::NodeId self() const override { return inner_.self(); }
  [[nodiscard]] mpz::Prng& rng() override { return inner_.rng(); }
  [[nodiscard]] std::uint64_t current_span() const override { return inner_.current_span(); }
  void set_current_span(std::uint64_t span) override { inner_.set_current_span(span); }
  [[nodiscard]] std::uint64_t mint_span() override { return inner_.mint_span(); }

 private:
  net::Context& inner_;
  std::uint64_t generation_;
  ClientTraffic& traffic_;
};

// One bus node hosting a sequence of ClientNodes, one at a time: when the
// current client holds its plaintext, the next one publishes, until
// `clients` have run. Replies and timers of finished clients are dropped.
class ClientSequencer final : public net::Node {
 public:
  struct Sample {
    core::TransferId transfer = 0;
    mpz::Bigint plaintext;
    std::optional<mpz::Bigint> recovered;
    Clock::time_point published;
    Clock::time_point finished;
  };

  ClientSequencer(core::SystemConfig cfg, mpz::Prng inputs, std::size_t clients)
      : cfg_(std::move(cfg)), inputs_(std::move(inputs)), clients_(clients) {}

  void on_start(net::Context& ctx) override { start_next(ctx); }
  void on_message(net::Context& ctx, net::NodeId from,
                  std::span<const std::uint8_t> bytes) override {
    if (!client_) return;
    TaggedContext tagged(ctx, generation_, traffic_);
    client_->on_message(tagged, from, bytes);
    after_event(ctx);
  }
  void on_timer(net::Context& ctx, std::uint64_t token) override {
    if (!client_ || token >> kTokenShift != generation_) return;
    TaggedContext tagged(ctx, generation_, traffic_);
    client_->on_timer(tagged, token & ((1ull << kTokenShift) - 1));
    after_event(ctx);
  }

  // Thread-safe: true once the last client holds its plaintext.
  [[nodiscard]] bool idle() const { return idle_.load(std::memory_order_acquire); }
  // Read only after the bus stopped.
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] const ClientTraffic& traffic() const { return traffic_; }

 private:
  void start_next(net::Context& ctx) {
    if (samples_.size() == clients_) {
      idle_.store(true, std::memory_order_release);
      return;
    }
    ++generation_;
    Sample s;
    s.transfer = 1000 + generation_;
    s.plaintext = random_plaintext(cfg_.params, inputs_);
    s.published = Clock::now();
    client_ = std::make_unique<core::ClientNode>(cfg_, s.transfer, s.plaintext, kPollInterval);
    samples_.push_back(std::move(s));
    TaggedContext tagged(ctx, generation_, traffic_);
    client_->on_start(tagged);
  }
  void after_event(net::Context& ctx) {
    if (!client_->finished()) return;
    samples_.back().finished = Clock::now();
    samples_.back().recovered = client_->plaintext();
    client_.reset();
    start_next(ctx);
  }

  core::SystemConfig cfg_;
  mpz::Prng inputs_;
  std::size_t clients_;
  std::unique_ptr<core::ClientNode> client_;
  std::uint64_t generation_ = 0;
  std::vector<Sample> samples_;
  ClientTraffic traffic_;
  std::atomic<bool> idle_{false};
};

struct Session {
  double setup_s = 0;
  double run_s = 0;  // bus start to bus stop
  std::size_t completed = 0;
  std::vector<double> latency_ms;   // publish -> plaintext
  std::vector<double> services_ms;  // publish -> every B server holds E_B(m)
  std::vector<double> retrieve_ms;  // that -> plaintext
  double service_cpu_a_s = 0;
  double service_cpu_b_s = 0;
  net::NetStats net;
  std::uint64_t word_muls = 0;
};

// One deployment (the set-up sample) serving `clients` transfers in turn.
// Fresh deployments keep what a session measures, its memory included,
// independent of how many sessions came before it.
Session run_session(mpz::Prng inputs, std::size_t clients, bool traced, bool inject_fault,
                    CoreTotals* totals, Report& report, Spans& spans) {
  Session out;
  obs::MemoryTraceRecorder trace;
  obs::MetricsRegistry registry;
  core::ProtocolOptions opts;
  if (traced) {
    opts.trace = &trace;
    opts.metrics = &registry;
  }
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Deployment> d;
  {
    Spans::Scope span(spans, "deploy");
    d = deploy(inputs, opts);
  }
  out.setup_s = seconds_since(t0);
  if (traced) d->bus->set_trace(&trace);
  auto client = std::make_unique<ClientSequencer>(d->cfg, inputs.fork("clients"), clients);
  ClientSequencer* seq = client.get();
  d->bus->add_node(std::move(client));

  // The main thread watches the B servers' result counters so that the
  // services' share of each client's latency can be told apart.
  std::vector<Clock::time_point> services_done;
  auto watch = [&] {
    std::uint64_t min_results = ~0ull;
    for (const core::ProtocolServer* s : d->b_servers)
      min_results = std::min(min_results, s->results_count());
    while (services_done.size() < min_results) services_done.push_back(Clock::now());
  };
  const group::GroupParams& params = d->cfg.params;
  const std::uint64_t ops0 = params.group_op_count();
  const Clock::time_point start = Clock::now();
  d->bus->start();
  // Until the last client holds its plaintext and every B server recorded
  // every result; a session that stalls is cut after a minute and its
  // unfinished transfers count as failed.
  const Clock::time_point deadline = start + std::chrono::seconds(60);
  while ((!seq->idle() || services_done.size() < clients) && Clock::now() < deadline) {
    watch();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  watch();
  d->bus->stop();
  out.run_s = seconds_since(start);
  // The services' traffic: everything on the bus but what clients sent.
  out.net = d->bus->stats();
  out.net.messages_sent -= seq->traffic().messages;
  out.net.bytes_sent -= seq->traffic().bytes;
  out.word_muls = (params.group_op_count() - ops0) * params.op_cost_weight();

  Spans::Scope check_span(spans, "check");
  const auto stored = stored_ciphertexts(d->a_servers.front()->snapshot());
  if (!stored) report.violation("A server snapshot has an unknown layout");
  const elgamal::KeyPair b_key = elgamal::KeyPair::from_private(params, d->b_private);
  const Decrypt decrypt_b = [&](const elgamal::Ciphertext& c) { return b_key.decrypt(c); };
  std::map<std::vector<std::uint8_t>, core::TransferId> first_components;
  const auto& samples = seq->samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ClientSequencer::Sample& s = samples[i];
    TransferExpect e;
    e.transfer = s.transfer;
    e.plaintext = s.plaintext;
    if (inject_fault && i == 0) e.plaintext = params.mul(s.plaintext, params.g());
    if (stored && stored->contains(s.transfer)) e.ea = stored->at(s.transfer);
    for (const core::ProtocolServer* b : d->b_servers) e.results.push_back(b->result(s.transfer));
    if (!check_transfer(e, params, decrypt_b, first_components, report) || !s.recovered) continue;
    if (*s.recovered != s.plaintext) {
      report.violation("transfer " + std::to_string(s.transfer) +
                       ": the client recovered another plaintext than it published");
    }
    ++out.completed;
    spans.add("core.ClientNode.publish_to_plaintext", s.published, s.finished);
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(s.finished - s.published).count());
    if (i < services_done.size()) {
      const Clock::time_point sv = std::max(services_done[i], s.published);
      out.services_ms.push_back(
          std::chrono::duration<double, std::milli>(sv - s.published).count());
      out.retrieve_ms.push_back(
          std::chrono::duration<double, std::milli>(s.finished - sv).count());
    }
  }
  report.attempted += clients;
  report.failed += clients - out.completed;
  for (const core::ProtocolServer* s : d->a_servers) out.service_cpu_a_s += s->cpu_seconds();
  for (const core::ProtocolServer* s : d->b_servers) out.service_cpu_b_s += s->cpu_seconds();
  if (traced) totals->add(registry);
  return out;
}

// Sessions 0, 1, 2, ... until `budget_s` has passed (at least one).
std::vector<Session> run_sessions(const Args& args, double budget_s, bool traced,
                                  CoreTotals* totals, Report& report, Spans& spans) {
  Inputs inputs(args.seed);
  const std::size_t clients = args.smoke ? 5 : kClientsPerSession;
  std::vector<Session> out;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i == 0 || seconds_since(start) < budget_s; ++i) {
    out.push_back(run_session(inputs.stream("threaded/session-" + std::to_string(i)), clients,
                              traced, args.inject_fault && i == 0, totals, report, spans));
  }
  return out;
}

// Pools one per-session sample over every session.
std::vector<double> pooled(const std::vector<Session>& sessions,
                           std::vector<double> Session::*field) {
  std::vector<double> out;
  for (const Session& s : sessions) out.insert(out.end(), (s.*field).begin(), (s.*field).end());
  return out;
}

}  // namespace

void run_threaded_workload(const Args& args, Report& report, Spans& spans) {
  if (!args.trace) {
    const std::vector<Session> sessions =
        run_sessions(args, args.seconds, false, nullptr, report, spans);
    std::vector<double> setup;
    std::vector<double> tps;
    double n = 0;
    double bytes = 0;
    double messages = 0;
    double word_muls = 0;
    for (const Session& s : sessions) {
      setup.push_back(s.setup_s);
      tps.push_back(static_cast<double>(s.completed) / s.run_s);
      n += static_cast<double>(s.completed);
      bytes += static_cast<double>(s.net.bytes_sent);
      messages += static_cast<double>(s.net.messages_sent);
      word_muls += static_cast<double>(s.word_muls);
    }
    const std::vector<double> latency = pooled(sessions, &Session::latency_ms);
    report.set("setup_s", median(setup), "s");
    report.set("transfers_per_s", median(tps), "1/s");
    report.set("latency_p50_ms", median(latency), "ms");
    // Server traffic only: the client's own polling (every kPollInterval
    // while a transfer is in flight) would tie these counts to latency.
    report.set("wire_bytes_per_transfer", bytes / n, "bytes");
    report.set("messages_per_transfer", messages / n, "count");
    report.set("word_muls_per_transfer", word_muls / n, "count");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    char line[200];
    std::snprintf(line, sizeof line, "client latency: p50 %.3f ms, p95 %.3f ms over %zu transfers",
                  median(latency), percentile(latency, 0.95), latency.size());
    report.note(line);
    report.note("sessions " + std::to_string(sessions.size()) + " x " +
                std::to_string(args.smoke ? 5 : kClientsPerSession) + " clients");
    return;
  }

  // Traced run: the same sessions twice, first untraced and then with the
  // program's trace recorder and metrics registry on, half the time each.
  const std::vector<Session> plain =
      run_sessions(args, args.seconds / 2, false, nullptr, report, spans);
  CoreTotals totals;
  const std::vector<Session> traced =
      run_sessions(args, args.seconds / 2, true, &totals, report, spans);
  double n_plain = 0;
  double cpu_a = 0;
  double cpu_b = 0;
  for (const Session& s : plain) {
    n_plain += static_cast<double>(s.completed);
    cpu_a += s.service_cpu_a_s;
    cpu_b += s.service_cpu_b_s;
  }
  double n_traced = 0;
  for (const Session& s : traced) n_traced += static_cast<double>(s.completed);
  totals.report(report, n_traced,
                static_cast<double>(group::GroupParams::named(group::ParamId::kEc255)
                                        .op_cost_weight()));
  report.set("core.service_cpu_ms_per_transfer.a", cpu_a * 1e3 / n_plain, "ms");
  report.set("core.service_cpu_ms_per_transfer.b", cpu_b * 1e3 / n_plain, "ms");
  report.set("core.reconfig_transfers_aborted", 0, "count");
  report.set("core.client.services_ms_p50", median(pooled(plain, &Session::services_ms)), "ms");
  report.set("core.client.retrieve_ms_p50", median(pooled(plain, &Session::retrieve_ms)), "ms");
  report.set("net.sim_overhead_ms_per_transfer", 0, "ms");
  report.set("net.virtual_latency_p50_ms", 0, "ms");

  const double plain_p50 = median(pooled(plain, &Session::latency_ms));
  const double traced_p50 = median(pooled(traced, &Session::latency_ms));
  const double overhead = (traced_p50 / plain_p50 - 1.0) * 100.0;
  report.set("trace.overhead_pct", overhead, "%");
  char line[200];
  std::snprintf(line, sizeof line,
                "tracing overhead: %.2f%% (latency_p50_ms %.3f untraced, %.3f traced)", overhead,
                plain_p50, traced_p50);
  report.note(line);

  run_layer_timings(args, report, spans);
}

}  // namespace perfbench
