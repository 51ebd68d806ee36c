// ProtocolServer: one server of a distributed service, running the complete
// re-encryption protocol of paper Figure 4.
//
// A single class implements both sides because several roles overlap:
//
//   Service B servers act as
//     - contributors (steps 2 & 4: commit, then contribute with VDE proof),
//     - coordinators C_j (steps 1, 3, 5; rank j starts after a backup delay
//       of (j-1)·coordinator_backup_delay — §4.1's delayed-coordinator
//       optimization; f+1 coordinators in total guarantee progress),
//     - threshold-signing members for B's service signature, and
//     - consumers of the final `done` message.
//
//   Service A servers act as
//     - responders (step 6: compute E_A(mρ), drive threshold decryption,
//       un-blind, drive A's threshold signature, send `done` to B),
//     - threshold-decryption share providers, and
//     - threshold-signing members for A's service signature.
//
// Every message is validated per Figure 5 before use; invalid messages are
// ignored (indistinguishable from loss). Byzantine behaviours for fault
// injection are selected via the Behavior enum.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include <deque>
#include <future>

#include "core/config.hpp"
#include "core/contribution_pool.hpp"
#include "core/messages.hpp"
#include "core/reconfig.hpp"
#include "core/transfer_engine.hpp"
#include "core/validity.hpp"
#include "core/verdict_memo.hpp"
#include "core/verify_pool.hpp"
#include "hash/sha256.hpp"
#include "net/sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "threshold/thresh_sign.hpp"

namespace dblind::core {

class ProtocolServer final : public net::Node {
 public:
  enum class Behavior : std::uint8_t {
    kHonest = 0,
    // Receives everything, sends nothing (distinct from a crash only in that
    // the node still counts as "running").
    kSilent,
    // Contributor sends an inconsistent encrypted contribution
    // (E_A(ρ), E_B(ρ')) with ρ != ρ' and a necessarily-bogus VDE proof
    // (§4.2.2's attack).
    kInconsistentContribution,
    // Contributor commits but never reveals its contribution (why the
    // coordinator must collect 2f+1 commitments, §4.2.1).
    kWithholdContribution,
    // Signing member participates through nonce reveal, then withholds its
    // partial signature (exercises the signing retry path).
    kWithholdPartial,
    // Coordinator fabricates (E_A(ρ̂), E_B(ρ̂)) it knows and asks B to
    // threshold-sign it without valid evidence (§4.2.3's attack).
    kBogusBlindCoordinator,
    // Coordinator colludes with compromised contributors to run the §4.2.1
    // adaptive-cancellation splice across two reveal rounds. Defeated by the
    // commit/reveal order plus the same-reveal evidence rule.
    kAdaptiveCancelCoordinator,
    // Contributor half of the adaptive attack: contributes a value crafted
    // to cancel previously-seen honest contributions.
    kAdaptiveCancelContributor,
  };

  ProtocolServer(SystemConfig cfg, ServerSecrets secrets, ProtocolOptions opts,
                 Behavior behavior = Behavior::kHonest);

  // --- pre-simulation setup --------------------------------------------------
  // Service A: store E_A(m) for a transfer, available from virtual time 0.
  void store_secret(TransferId transfer, elgamal::Ciphertext ea_m);
  // Service A: the ciphertext becomes available only at virtual time `when`
  // (models "E_A(m) not yet generated" for the pre-computation experiment).
  void store_secret_at(TransferId transfer, elgamal::Ciphertext ea_m, net::Time when);
  // Service B: announce a transfer to run. Must be called on every B server
  // before the simulation starts.
  void register_transfer(TransferId transfer);
  // Service B: the transfer only becomes known at virtual time `when` (open-
  // loop workload: Poisson arrivals hit the running system instead of being
  // batch-registered at time 0). Arrival behaves exactly like a client
  // kTransferRequest landing at `when`.
  void register_transfer_arriving(TransferId transfer, net::Time when);
  // Epochal reconfiguration: at virtual time `at`, start a reconfiguration
  // round proposing `spec` (this server acts as the round's coordinator).
  // Call on old ranks 1..f+1 with staggered times — like Fig. 4 coordinators,
  // f+1 staggered proposers guarantee progress without echo-vote splits in
  // the common case. A server already at (or past) spec.epoch skips the round.
  void schedule_reconfig(ReconfigSpec spec, net::Time at);

  // --- observers --------------------------------------------------------------
  // Service B: the validated re-encrypted ciphertext, once a valid `done`
  // message arrived.
  [[nodiscard]] std::optional<elgamal::Ciphertext> result(TransferId transfer) const;
  // CPU time spent inside this node's handlers (for the offloading claim).
  [[nodiscard]] double cpu_seconds() const { return cpu_seconds_; }
  // Number of transfers with a validated result. Atomic so that controlling
  // threads (e.g. net::ThreadedBus::run_until) can poll completion without a
  // data race; inspect `result()` itself only when the transport is paused.
  [[nodiscard]] std::uint64_t results_count() const {
    return results_count_.load(std::memory_order_acquire);
  }
  // Attack diagnostics: number of service signatures this (Byzantine)
  // coordinator managed to obtain on fabricated/spliced payloads.
  [[nodiscard]] int attack_successes() const { return attack_successes_; }
  // Received-message histogram by type (accounting for the benches).
  [[nodiscard]] const std::map<MsgType, std::uint64_t>& rx_histogram() const {
    return rx_counts_;
  }
  // Number of cached frames re-sent by the retransmission layer (benches
  // report this as retransmission overhead). Backed by an atomic cell so the
  // metrics registry can attach it as a counter time series.
  [[nodiscard]] std::uint64_t retransmits_sent() const {
    return retransmits_sent_.load(std::memory_order_relaxed);
  }
  // Currently installed config epoch (0 = the seed configuration).
  [[nodiscard]] ConfigEpoch config_epoch() const { return cfg_epoch_; }
  // Current rank under the installed configuration; 0 = retired/standby
  // (serves stored results and reconfiguration traffic, nothing else).
  [[nodiscard]] ServerRank rank() const { return secrets_.rank; }
  // True while this server is a roster member still waiting for re-shared
  // sub-shares after an install (it pulls them from the dealers).
  [[nodiscard]] bool share_pending() const { return share_pending_; }
  // This server's current view of the system configuration.
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  // This server's memo of verified signatures and proofs (tests inspect it).
  [[nodiscard]] const VerdictMemo& verdict_memo() const { return memo_; }

  // --- observability types ----------------------------------------------------
  // Optional fields of a trace event; which ones an event uses depends on
  // its kind (see obs/trace.hpp).
  struct TraceExtras {
    std::uint64_t transfer = 0;  // events with a transfer but no instance
    std::uint64_t peer = 0;
    std::uint32_t subject = 0;
    std::uint64_t count = 0;
    std::uint32_t attempt = 0;
    std::uint32_t cap = 0;
  };
  // Metric handles, resolved once from ProtocolOptions::metrics. Without a
  // registry every handle points at the process-wide discard cell, so updates
  // stay branch-free (ISSUE 4 satellite d).
  struct Metrics {
    bool resolved = false;
    static constexpr std::size_t kTypes = 29;  // MsgType values are 1..28
    std::array<obs::Counter, kTypes> rx_msgs;       // received, by type
    std::array<obs::Counter, kTypes> rx_bytes;      // payload bytes, by type
    std::array<obs::Counter, kTypes> mont_muls;     // handler mont-muls, by type
    std::array<obs::Histogram, kTypes> handler_wall_us;  // handler wall time
    // Per-phase latency in transport time (virtual µs under the Simulator).
    obs::Histogram phase_commit_us;      // epoch start -> reveal broadcast
    obs::Histogram phase_contribute_us;  // reveal broadcast -> blind-sign begin
    obs::Histogram phase_blind_sign_us;  // blind-sign begin -> service signature
    obs::Histogram phase_decrypt_us;     // decrypt begin -> f+1 valid replies
    obs::Histogram phase_done_sign_us;   // done-sign begin -> service signature
    obs::Counter verify_pass;
    obs::Counter verify_fail;
    obs::Counter batch_fallbacks;        // batch-mode checks that came back false
    obs::Histogram verify_queue_depth;   // pool queue depth at each enqueue
    obs::Histogram verify_drain_batch;   // verdicts applied per drain timer
    // Contribution-pool health (ISSUE 5): depth after each refill/drain,
    // event counts, and offline-vs-online mont-mul attribution. "online" is
    // everything spent inside the contributor's init/reveal handlers (the
    // critical path a coordinator waits on); "offline" is bundle creation
    // from prefill/refill timers.
    obs::Gauge pool_depth;
    obs::Counter pool_refills;
    obs::Counter pool_drains;
    obs::Counter pool_fallbacks;         // drain requests served on demand
    obs::Counter contrib_mont_muls_online;
    obs::Counter contrib_mont_muls_offline;
    // Epochal reconfiguration (PR 7): installed epoch + lifecycle counts.
    obs::Gauge config_epoch;
    obs::Counter reconfig_installs;   // dblind_reconfig_events_total{event="install"}
    obs::Counter reconfig_aborts;     // ...{event="abort"} (instances killed at installs)
    obs::Counter reconfig_stale_rejects;  // ...{event="stale_reject"} (kWrongEpoch sent)
    // Concurrent multi-transfer engine (PR 8): admission scheduler health and
    // cross-transfer drain shape.
    obs::Gauge engine_inflight;          // currently admitted self-coordinated transfers
    obs::Gauge engine_queued;            // transfers waiting for an admission slot
    obs::Counter engine_admits;
    obs::Counter engine_defers;
    obs::Histogram cross_drain_msgs;       // contribute messages per cross-transfer drain
    obs::Histogram cross_drain_equations;  // CP equations folded into the combined pass
  };

  // --- net::Node --------------------------------------------------------------
  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, net::NodeId from, std::span<const std::uint8_t> bytes) override;
  void on_timer(net::Context& ctx, std::uint64_t token) override;
  // Crash-recovery (net::Simulator::restart_at): durable state is what a
  // correct server persists before acting on it — stored secrets, registered
  // transfers, validated done messages, and the next coordinator epoch per
  // transfer. Everything else (round state, signing sessions, caches) is
  // volatile and lost on a crash.
  [[nodiscard]] std::vector<std::uint8_t> snapshot() const override;
  void restore(std::span<const std::uint8_t> snap) override;

 private:
  // ---- shared plumbing -------------------------------------------------------
  [[nodiscard]] const ServicePublic& my_service() const { return cfg_.service(secrets_.role); }
  [[nodiscard]] bool is_b() const { return secrets_.role == ServiceRole::kServiceB; }
  // Roster membership under the installed config. Retired/standby servers
  // (rank 0) never take part in Fig. 4 — they cannot sign envelopes the new
  // roster accepts — but keep serving results and reconfiguration traffic.
  [[nodiscard]] bool active() const { return secrets_.rank != 0; }
  void send_signed(net::Context& ctx, net::NodeId to, MsgType type,
                   const std::vector<std::uint8_t>& body);
  void broadcast_signed(net::Context& ctx, ServiceRole svc, MsgType type,
                        const std::vector<std::uint8_t>& body);
  void send_service_signed(net::Context& ctx, net::NodeId to, const ServiceSignedMsg& msg);
  // Signs `body` and returns the framed wire bytes (for caching + resend).
  [[nodiscard]] std::vector<std::uint8_t> signed_frame(net::Context& ctx,
                                                       const std::vector<std::uint8_t>& body);

  // ---- retransmission (chaos layer) -----------------------------------------
  // A set of already-signed frames re-sent with capped exponential backoff
  // until progress cancels the entry or attempts run out. Only cached bytes
  // are ever re-sent: retransmission never re-randomizes committed values.
  struct Resend {
    std::vector<std::pair<net::NodeId, std::vector<std::uint8_t>>> msgs;
    net::Time delay = 0;
    int attempts = 1;  // the original send counts as the first attempt
    int max_attempts = 0;
    TransferId transfer = 0;
    bool cancel_on_result = false;  // B: stop once `transfer` has a result
  };
  // Returns a key for cancel_resend, or 0 when retransmission is disabled.
  std::uint64_t arm_resend(net::Context& ctx, Resend r, net::Time initial_delay = 0,
                           int max_attempts = 0);
  void cancel_resend(std::uint64_t& key);
  void cancel_resends_for_transfer(TransferId transfer);
  void handle_resend_timer(net::Context& ctx, std::uint64_t key);
  // Re-sends one cached frame verbatim (empty frames are skipped).
  void resend_frame(net::Context& ctx, net::NodeId to, const std::vector<std::uint8_t>& frame);
  // B: periodic pull of a missing result from peer B servers (recovery after
  // restarts/partitions), using the client ResultRequest/ResultReply path.
  void arm_result_pull(net::Context& ctx, TransferId transfer);
  void handle_result_reply(net::Context& ctx, std::span<const std::uint8_t> body);
  [[nodiscard]] std::uint32_t next_epoch_of(TransferId transfer) const;

  // ---- contributor role (B) --------------------------------------------------
  struct ContributorState {
    Contribution contribution;
    mpz::Bigint r1, r2;  // encryption nonces (VDE witnesses)
    mpz::Bigint rho;
    // The consistent E_B(ρ, r2) the VDE proof is computed over. Equal to
    // contribution.eb for honest servers; kInconsistentContribution
    // advertises a different eb but must still attach a proof for the
    // consistent shadow pair.
    elgamal::Ciphertext eb_good;
    zkp::VdeOffline vde_offline;  // announcements, finished in handle_reveal
    std::uint64_t bundle = 0;     // id of the consumed bundle (tracing)
    bool committed = false;
    bool contributed = false;  // responded to (at most) one reveal
    // Cached signed frames, re-sent verbatim on duplicate init/reveal.
    std::vector<std::uint8_t> commit_frame;
    std::vector<std::uint8_t> contribute_frame;
    SignedMessage answered_reveal;  // the one reveal we responded to
  };
  void handle_init(net::Context& ctx, const SignedMessage& env);
  void handle_reveal(net::Context& ctx, const SignedMessage& env);
  ContributorState& contributor_state(net::Context& ctx, const InstanceId& id);
  // Pool drain with transparent on-demand fallback; also the pool-off path.
  [[nodiscard]] ContributionBundle obtain_bundle(net::Context& ctx, const InstanceId& id);
  // One bundle per tick while below capacity (kTimerPoolRefill).
  void pool_refill_tick(net::Context& ctx);
  void arm_pool_refill(net::Context& ctx);

  // ---- coordinator role (B) --------------------------------------------------
  struct CoordinatorState {
    InstanceId id;
    std::map<ServerRank, SignedMessage> commits;
    SignedMessage reveal_env;
    bool revealed = false;
    std::map<ServerRank, SignedMessage> contributes;
    bool signing = false;
    bool sent_blind = false;
    std::uint64_t init_resend = 0;    // retransmission keys (0 = none)
    std::uint64_t reveal_resend = 0;
    // Phase timestamps (observability only; never read by protocol logic).
    net::Time t_start = 0;   // instance opened
    net::Time t_reveal = 0;  // 2f+1 commits reached, reveal broadcast
    net::Time t_sign = 0;    // f+1 valid contributions, blind signing began
    // Adaptive-cancel attack bookkeeping:
    std::vector<SignedMessage> attack_first_round;  // honest contributions seen
  };
  void start_coordinator(net::Context& ctx, TransferId transfer, std::uint32_t epoch);
  void handle_commit(net::Context& ctx, const SignedMessage& env);
  void handle_contribute(net::Context& ctx, const SignedMessage& env);
  // State transition for a verified contribute message — shared by the inline
  // path and the worker-pool drain, so both evolve coordinator state
  // identically.
  void apply_contribute(net::Context& ctx, const SignedMessage& env,
                        const ContributeMsg& contribute);
  // Applies completed worker-pool verifications in message-arrival order.
  void drain_verifies(net::Context& ctx);
  // Cross-transfer variant (batch_verify + verify_workers): waits for every
  // queued structural precheck, folds ALL surviving VDE proofs — across
  // transfers and coordinators — into one combined RLC pass, then applies
  // verdicts in strict arrival order with per-(transfer, rank) culprit
  // attribution on failure.
  void drain_verifies_cross(net::Context& ctx);
  void coordinator_try_finish(net::Context& ctx, CoordinatorState& st);

  // ---- concurrent multi-transfer engine (core/transfer_engine.hpp) -----------
  // Starts coordinators (rank-staggered, like on_start) for transfers the
  // admission scheduler just moved to Active.
  void launch_admitted(net::Context& ctx, std::span<const TransferId> admitted);

  // ---- threshold-signing coordinator (A and B) --------------------------------
  struct SignSession {
    std::uint64_t session = 0;
    SignPurpose purpose{};
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> evidence;
    std::set<ServerRank> excluded;
    std::map<ServerRank, threshold::NonceCommitment> commits;
    std::vector<threshold::NonceCommitment> quorum;
    std::map<ServerRank, threshold::NonceReveal> reveals;
    std::map<ServerRank, threshold::PartialSignature> partials;
    bool done = false;
    int attempt = 0;
    std::uint64_t round_resend = 0;  // retransmits the current round's broadcast
    TransferId transfer = 0;
    bool cancel_on_result = false;
  };
  std::uint64_t start_sign_session(net::Context& ctx, SignPurpose purpose,
                                   std::vector<std::uint8_t> payload,
                                   std::vector<std::uint8_t> evidence,
                                   std::set<ServerRank> excluded = {}, int attempt = 0);
  void handle_sign_commit_reply(net::Context& ctx, const SignedMessage& env);
  void handle_sign_reveal_reply(net::Context& ctx, const SignedMessage& env);
  void handle_sign_partial_reply(net::Context& ctx, const SignedMessage& env);
  void sign_session_retry(net::Context& ctx, std::uint64_t session);
  void sign_session_finished(net::Context& ctx, SignSession& ss, zkp::SchnorrSignature sig);

  // ---- threshold-signing member (A and B) -------------------------------------
  struct MemberSession {
    std::vector<std::uint8_t> payload;
    std::vector<threshold::NonceCommitment> quorum;
    std::unique_ptr<threshold::SigningMember> member;
    bool responded = false;
    // Cached signed frames: a signing member must answer a duplicate round
    // message with the SAME bytes — a fresh nonce commitment/reveal for the
    // same session would be a catastrophic nonce reuse across equivocating
    // coordinators.
    std::vector<std::uint8_t> commit_frame;
    std::vector<std::uint8_t> reveal_frame;
    std::vector<std::uint8_t> partial_frame;
    hash::Digest reveals_digest{};  // body digest of the reveal set we answered
  };
  void handle_sign_request(net::Context& ctx, const SignedMessage& env);
  void handle_sign_quorum(net::Context& ctx, const SignedMessage& env);
  void handle_sign_reveal_set(net::Context& ctx, const SignedMessage& env);

  // ---- service A responder role ------------------------------------------------
  struct ResponderState {
    ServiceSignedMsg blind_env;
    BlindPayload blind;
    elgamal::Ciphertext ea_m_rho;
    std::map<std::uint32_t, threshold::DecryptionShare> shares;
    bool signing = false;
    bool sent_done = false;
    std::uint64_t decrypt_resend = 0;  // retransmits the decrypt-request round
    // Phase timestamps (observability only).
    net::Time t_begin = 0;      // decrypt round opened
    net::Time t_done_sign = 0;  // f+1 valid replies, done signing began
  };
  void handle_blind(net::Context& ctx, const ServiceSignedMsg& msg);
  void start_responder(net::Context& ctx, const InstanceId& id);
  void handle_decrypt_request(net::Context& ctx, const SignedMessage& env);
  void handle_decrypt_share_reply(net::Context& ctx, const SignedMessage& env);

  // ---- service B result consumption ---------------------------------------------
  void handle_done(net::Context& ctx, const ServiceSignedMsg& msg);
  // Shared by handle_done / handle_result_reply / restore: records a
  // validated done message (payload already checked against `msg`). `ctx` is
  // null when replaying durable state in restore() — no events are emitted
  // for dones that were already traced in a previous incarnation.
  void record_done(net::Context* ctx, const DonePayload& done, const ServiceSignedMsg& msg);

  // ---- client-facing handlers (library extension; see core/client.hpp) -----------
  void handle_transfer_request(net::Context& ctx, net::NodeId from,
                               std::span<const std::uint8_t> body);
  void handle_result_request(net::Context& ctx, net::NodeId from,
                             std::span<const std::uint8_t> body);
  void handle_client_decrypt_request(net::Context& ctx, net::NodeId from,
                                     std::span<const std::uint8_t> body);
  void schedule_coordinator(net::Context& ctx, TransferId transfer);

  // ---- epochal reconfiguration (see core/reconfig.hpp, docs/PROTOCOL.md) ----------
  // State of the (at most one) reconfiguration round this node is engaged in.
  // Volatile, like all round state: a crash mid-round loses it; the install
  // certificate chain (install_log_) is how recovered nodes catch up.
  struct ReconfigRound {
    ReconfigSpec spec;          // the spec this node dealt for
    bool coordinating = false;  // we broadcast the start and collect deals
    bool dealt = false;         // re-shared exactly once for spec.epoch
    bool applied = false;       // (coordinator) apply already broadcast
    bool echoed = false;        // echoed exactly one digest for spec.epoch
    std::map<std::uint32_t, SignedMessage> deals;  // coordinator: by old dealer rank
    std::uint64_t start_resend = 0;
    std::uint64_t deal_resend = 0;
    std::uint64_t apply_resend = 0;
    std::uint64_t echo_resend = 0;
  };
  // All Fig. 4 epoch gating + reconfiguration handlers below run on the
  // handler thread like everything else; none of this state needs locks.
  void maybe_send_wrong_epoch(net::Context& ctx, net::NodeId from, const SignedMessage& env);
  void send_reconfig_pull(net::Context& ctx, net::NodeId to);
  void start_reconfig_round(net::Context& ctx, const ReconfigSpec& spec);
  void reshare_for(net::Context& ctx, const ReconfigSpec& spec);
  void handle_reconfig_start(net::Context& ctx, const SignedMessage& env);
  void handle_reshare_deal(net::Context& ctx, const SignedMessage& env);
  void handle_reconfig_apply(net::Context& ctx, const SignedMessage& env);
  void handle_reconfig_echo(net::Context& ctx, const SignedMessage& env);
  void handle_reshare_subshare(net::Context& ctx, std::span<const std::uint8_t> body);
  void handle_wrong_epoch(net::Context& ctx, net::NodeId from,
                          std::span<const std::uint8_t> body);
  void handle_reconfig_pull(net::Context& ctx, net::NodeId from,
                            std::span<const std::uint8_t> body);
  void handle_reconfig_state(net::Context& ctx, net::NodeId from,
                             std::span<const std::uint8_t> body);
  void handle_subshare_pull(net::Context& ctx, net::NodeId from,
                            std::span<const std::uint8_t> body);
  void try_install(net::Context& ctx);
  void install_config(net::Context& ctx, const SignedMessage& apply_env,
                      const ReconfigApplyMsg& apply, std::vector<SignedMessage> echoes);
  // Post-install: verify a received sub-share against the installed deal
  // commitments; completes the pending share set when the quorum is full.
  void absorb_subshare(net::Context& ctx, const ReshareSubshareMsg& msg);
  void maybe_complete_share(net::Context& ctx);
  // Everyone a reconfiguration broadcast must reach: both current rosters
  // plus the target roster (joiners are not in any current roster yet).
  [[nodiscard]] std::vector<net::NodeId> reconfig_targets(const ReconfigSpec& spec) const;

  // ---- Byzantine helpers -----------------------------------------------------------
  void attack_coordinator_step(net::Context& ctx, CoordinatorState& st);

  // ---- observability (no protocol effect; docs/OBSERVABILITY.md) -------------------
  // Emits one event when opts_.trace is set; a no-op (single pointer test,
  // extras never built at the call site unless given) otherwise.
  void emit_trace(net::Context& ctx, obs::EventKind kind, const InstanceId* id = nullptr);
  void emit_trace(net::Context& ctx, obs::EventKind kind, const InstanceId* id,
                  const TraceExtras& extra);
  // Counts + traces a contribute verification outcome (inline and pool paths).
  // `rejected` (only ever non-null together with a null `contribute`) carries
  // the decoded message of a structurally-valid-but-proof-failing contribute,
  // so the cross-transfer drain can attribute the failure to the right
  // (transfer, rank) even though the message is dropped.
  void record_contribute_verdict(net::Context& ctx, const SignedMessage& env,
                                 const ContributeMsg* contribute,
                                 const ContributeMsg* rejected = nullptr);
  // Resolves metric handles from opts_.metrics (idempotent; called from
  // on_start so a restarted server re-binds to the same time series). With
  // no registry the handles stay default-constructed: every update lands in
  // the process-wide discard cell, branch-free.
  void resolve_metrics(net::Context& ctx);
  // Stall-watchdog plumbing (B servers; inert unless both opts_.trace and
  // opts_.watchdog_deadline are set). `watchdog_note` is called from
  // emit_trace for every transfer-scoped event: kDoneRecorded completes the
  // entry, anything else refreshes its deadline; a refresh that un-stalls a
  // transfer emits kStallResolved parented on the resolving event's span.
  void watchdog_note(net::Context& ctx, const obs::TraceEvent& ev);
  // Arms the low-frequency sweep timer iff some tracked transfer could still
  // newly stall (Watchdog::needs_sweep) and no timer is already pending —
  // fully-stalled or fully-done nodes let the event queue drain.
  void arm_watchdog_timer(net::Context& ctx);
  // Sweep: flips idle transfers to stalled and emits one kStall each, with
  // parent = the transfer's latest span (its parent chain is the stalled
  // span stack) and a one-shot public state dump in the count fields.
  void watchdog_tick(net::Context& ctx);

  SystemConfig cfg_;
  ServerSecrets secrets_;
  ProtocolOptions opts_;
  Behavior behavior_;

  // --- epochal reconfiguration state -----------------------------------------
  ConfigEpoch cfg_epoch_ = 0;
  // Construction-time copies: a crash loses every installed configuration
  // (config state is volatile by design — the install chain is re-learned
  // from peers), so restore() resets to these and recovers via pulls.
  SystemConfig initial_cfg_;
  ServerSecrets initial_secrets_;
  std::size_t initial_max_coordinators_ = 0;
  std::optional<ReconfigRound> reconfig_round_;
  // Valid applies / echo votes for the NEXT epoch, by apply digest. A node
  // echoes at most one digest; installing needs one digest with a valid
  // apply and 2f+1 distinct old-roster echoes.
  std::map<hash::Digest, SignedMessage> applies_by_digest_;
  std::map<hash::Digest, std::map<ServerRank, SignedMessage>> echoes_by_digest_;
  // Received re-sharing sub-shares, by (install epoch, old dealer rank).
  // Verified against the certified deal commitments at install time (or on
  // arrival, once installed); latest receipt wins so a garbage sub-share
  // cannot permanently shadow the dealer's real one.
  std::map<std::pair<ConfigEpoch, std::uint32_t>, ReshareSubshareMsg> subshares_;
  // Dealer side: cached deal/sub-share frames per install epoch, served to
  // kSubsharePull — but only to the node holding the pulled rank (sub-shares
  // are secret; frames[j] goes to targets[j-1] and nobody else). Volatile —
  // a crashed dealer cannot re-deal (a fresh polynomial would not match the
  // certified commitments), which is the documented liveness residual of
  // recovery-after-install.
  struct DealtEpoch {
    std::vector<net::NodeId> targets;               // new rank j -> targets[j-1]
    std::vector<std::vector<std::uint8_t>> frames;  // [0] deal, [j] rank j's sub-share
  };
  std::map<ConfigEpoch, DealtEpoch> dealt_frames_;
  // Certified installs, replayed to lagging peers one epoch at a time.
  std::map<ConfigEpoch, InstallRecord> install_log_;
  // Member of the new roster whose sub-share quorum is still incomplete.
  bool share_pending_ = false;
  std::uint64_t subshare_pull_resend_ = 0;
  // Set by restore(): the next on_start pulls the install chain from every
  // peer, since any install that happened while this server was down left it
  // with a stale share and roster.
  bool restored_ = false;
  // Pre-simulation schedule: (virtual time, spec) pairs armed in on_start.
  std::vector<std::pair<net::Time, ReconfigSpec>> scheduled_reconfigs_;

  // Per-transfer application state.
  std::map<TransferId, elgamal::Ciphertext> stored_;                   // A: E_A(m)
  std::map<TransferId, std::pair<elgamal::Ciphertext, net::Time>> pending_store_;  // A
  std::set<TransferId> transfers_;                                     // B: to run
  std::map<TransferId, elgamal::Ciphertext> results_;                  // B: E_B(m)
  // All validated done messages per transfer (several coordinators may each
  // produce one); used to answer clients and to authorize client-requested
  // decryption shares.
  std::map<TransferId, std::vector<ServiceSignedMsg>> done_msgs_;
  std::map<TransferId, std::vector<DonePayload>> done_payloads_;

  // Blind messages for secrets that have not arrived yet (pre-computation
  // experiment): replayed when the secret is stored.
  std::vector<ServiceSignedMsg> parked_blinds_;

  // Role state.
  std::map<InstanceId, ContributorState> contributor_;
  std::map<InstanceId, CoordinatorState> coordinator_;
  std::map<std::uint64_t, SignSession> sign_sessions_;  // keyed by session id (ours)
  std::map<std::pair<net::NodeId, std::uint64_t>, MemberSession> member_sessions_;
  std::map<InstanceId, ResponderState> responder_;
  std::set<InstanceId> seen_blind_;  // A: instances already being responded to

  std::uint64_t next_session_ = 1;
  std::map<MsgType, std::uint64_t> rx_counts_;
  std::atomic<std::uint64_t> results_count_{0};
  double cpu_seconds_ = 0;
  int attack_successes_ = 0;

  // Retransmission state (sender side).
  std::map<std::uint64_t, Resend> resends_;
  std::uint64_t next_resend_ = 1;  // 0 = invalid key / "no resend armed"
  std::map<TransferId, std::uint64_t> result_pull_keys_;  // B: active pulls
  std::atomic<std::uint64_t> retransmits_sent_{0};
  Metrics metrics_;
  // Next coordinator epoch to use per transfer. Durable: a restarted
  // coordinator must not reuse an epoch it may already have announced with a
  // different (lost) contribution set.
  std::map<TransferId, std::uint32_t> next_epoch_;
  // Receiver-side reply caches: duplicates are answered with the exact bytes
  // sent the first time.
  std::map<std::pair<InstanceId, ServerRank>, std::vector<std::uint8_t>> decrypt_reply_frames_;
  std::map<std::pair<net::NodeId, TransferId>,
           std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>>
      client_decrypt_cache_;  // (request body, reply frame)

  // Verification worker pool (opts_.verify_workers > 0): contribute messages
  // are checked off-handler; results apply in arrival order at the drain
  // timer. The deque gives reference-stable slots for in-flight jobs; entries
  // are volatile (dropped on restore(), like all round state). Declared
  // before verify_pool_ so the pool (whose destructor joins the workers)
  // dies first and no job can outlive its slot.
  struct PendingVerify {
    SignedMessage env;
    std::optional<ContributeMsg> result;
    std::future<void> done;
  };
  std::deque<PendingVerify> pending_verifies_;
  // Verify once (core/verdict_memo.hpp): positive verdicts this node computed,
  // scoped to cfg_epoch_ and reset by install_config and restore(). Shared
  // with the VerifyPool workers (it locks internally), so it is declared
  // before verify_pool_ and outlives every worker.
  VerdictMemo memo_;
  std::unique_ptr<VerifyPool> verify_pool_;

  // Offline/online contribution split (B contributors). The dedicated prng is
  // forked once per incarnation in on_start and is the ONLY source of
  // contribution randomness, in both pool-on and pool-off modes — that is
  // what keeps the two modes byte-identical on the wire for a given seed.
  // The pool itself is volatile: restore() drops it (bundles hold secret ρ
  // values that must never be serialized) and bundle ids keep counting up so
  // no id is ever consumed twice per node.
  std::optional<mpz::Prng> offline_prng_;
  std::unique_ptr<ContributionPool> pool_;
  std::uint64_t next_bundle_id_ = 1;
  bool pool_timer_armed_ = false;

  // Concurrent multi-transfer engine: per-transfer lifecycle records sharded
  // by id plus the FIFO admission scheduler gating self-coordination (see
  // core/transfer_engine.hpp). Scheduling state is volatile — restore() resets
  // it and the next on_start re-feeds the durable transfer set.
  TransferEngine engine_;
  // Stall watchdog (observability only; obs/watchdog.hpp). Volatile like all
  // scheduling state: restore() resets it and the next on_start re-arms the
  // durable transfer set. Touched only from this node's handler thread.
  obs::Watchdog watchdog_;
  bool watchdog_timer_armed_ = false;
  // Root key for per-instance contribution prngs (opts_.per_transfer_rng):
  // drawn once per incarnation in on_start; each instance's stream is
  // SHA256(root ‖ transfer ‖ coordinator ‖ epoch ‖ cfg_epoch), so a
  // transfer's wire bytes are independent of interleaving with other
  // transfers. Unset when the knob is off — no extra rng draws happen, and
  // the seed engine's byte-exact draw order is preserved.
  std::optional<hash::Digest> instance_rng_root_;
  // Open-loop arrivals: (virtual time, transfer) pairs armed in on_start.
  std::vector<std::pair<net::Time, TransferId>> scheduled_arrivals_;

  // Timer token layout (high byte = kind).
  static constexpr std::uint64_t kTimerCoordinator = 1ull << 56;   // | transfer
  static constexpr std::uint64_t kTimerResponder = 2ull << 56;     // | dense instance key
  static constexpr std::uint64_t kTimerSignRetry = 3ull << 56;     // | session id
  static constexpr std::uint64_t kTimerStoreSecret = 4ull << 56;   // | transfer
  static constexpr std::uint64_t kTimerResend = 5ull << 56;        // | resend key
  static constexpr std::uint64_t kTimerVerifyDrain = 6ull << 56;   // (no payload)
  static constexpr std::uint64_t kTimerPoolRefill = 7ull << 56;    // (no payload)
  static constexpr std::uint64_t kTimerReconfig = 8ull << 56;      // | schedule index
  static constexpr std::uint64_t kTimerTransferArrival = 9ull << 56;  // | arrival index
  static constexpr std::uint64_t kTimerWatchdog = 10ull << 56;        // (no payload)
  std::map<std::uint64_t, InstanceId> responder_timer_ids_;
  std::uint64_t next_responder_timer_ = 0;
};

}  // namespace dblind::core
