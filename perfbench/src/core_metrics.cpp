// Reads the per-message-type handler costs, verification verdicts and
// retransmissions out of the program's metrics registry.
#include <set>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const std::set<std::string>& reconfig_labels() {
  static const std::set<std::string> labels = {
      "reconfig_start", "reshare_deal",   "reshare_subshare", "reconfig_apply", "reconfig_echo",
      "wrong_epoch",    "reconfig_pull",  "reconfig_state",   "subshare_pull"};
  return labels;
}

std::string row_of(const std::string& label) {
  if (reconfig_labels().contains(label)) return "reconfig";
  for (const std::string& row : message_rows()) {
    if (row == label) return row;
  }
  return "other";
}

std::string label_value(const dblind::obs::LabelSet& labels, const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return {};
}

}  // namespace

const std::vector<std::string>& message_rows() {
  static const std::vector<std::string> rows = {
      "init",           "commit",         "reveal",
      "contribute",     "blind",          "done",
      "sign_request",   "sign_commit_reply", "sign_quorum",
      "sign_reveal_reply", "sign_reveal_set", "sign_partial_reply",
      "decrypt_request", "decrypt_reply", "transfer_request",
      "result_request", "result_reply",   "client_decrypt_request",
      "client_decrypt_reply", "reconfig", "other"};
  return rows;
}

void CoreTotals::add(const dblind::obs::MetricsRegistry& reg) {
  for (const auto& s : reg.scalar_samples()) {
    const auto v = static_cast<double>(s.value);
    if (s.name == "dblind_handler_mont_muls_total") {
      handler_ops[row_of(label_value(s.labels, "type"))] += v;
    } else if (s.name == "dblind_rx_bytes_total") {
      rx_bytes[row_of(label_value(s.labels, "type"))] += v;
    } else if (s.name == "dblind_verify_total") {
      (label_value(s.labels, "result") == "pass" ? verify_pass : verify_fail) += v;
    } else if (s.name == "dblind_retransmits_sent_total") {
      retransmits += v;
    }
  }
  for (const auto& h : reg.histogram_samples()) {
    if (h.name == "dblind_handler_wall_us")
      handler_us[row_of(label_value(h.labels, "type"))] += static_cast<double>(h.total);
  }
}

void CoreTotals::report(Report& r, double transfers, double op_weight) const {
  auto per = [&](const std::map<std::string, double>& m, const std::string& row) {
    auto it = m.find(row);
    return it == m.end() || transfers <= 0 ? 0.0 : it->second / transfers;
  };
  for (const std::string& row : message_rows()) {
    r.set("core.handler_us." + row, per(handler_us, row), "us");
    r.set("core.handler_word_muls." + row, per(handler_ops, row) * op_weight, "count");
    r.set("core.rx_bytes." + row, per(rx_bytes, row), "bytes");
  }
  const double n = transfers > 0 ? transfers : 1;
  r.set("core.verify_pass_per_transfer", verify_pass / n, "count");
  r.set("core.verify_fail_per_transfer", verify_fail / n, "count");
  r.set("core.retransmits_per_transfer", retransmits / n, "count");
}

}  // namespace perfbench
