#include "src/obs/round_profiler.hpp"

namespace qcongest::obs {

RoundProfiler::RoundSample& RoundProfiler::sample(std::size_t run_round) {
  std::size_t global = run_base_ + run_round;
  if (global >= rounds_.size()) rounds_.resize(global + 1);
  return rounds_[global];
}

RoundProfiler::PhaseSpan* RoundProfiler::open_span() {
  return span_open_ ? &phases_.back() : nullptr;
}

void RoundProfiler::close_span() {
  if (!span_open_) return;
  phases_.back().rounds = rounds_.size() - phases_.back().first_round;
  span_open_ = false;
  span_auto_ = false;
}

void RoundProfiler::begin_phase(const std::string& name) {
  close_span();
  PhaseSpan span;
  span.name = name;
  span.first_round = rounds_.size();
  phases_.push_back(std::move(span));
  span_open_ = true;
  span_auto_ = false;
}

void RoundProfiler::end_phase() {
  if (span_open_ && !span_auto_) close_span();
}

void RoundProfiler::reset() {
  rounds_.clear();
  phases_.clear();
  run_base_ = 0;
  runs_ = 0;
  span_open_ = false;
  span_auto_ = false;
}

void RoundProfiler::on_run_begin(const net::Engine& engine) {
  (void)engine;
  run_base_ = rounds_.size();
  if (!span_open_) {
    begin_phase("run#" + std::to_string(runs_));
    span_auto_ = true;
  }
  ++runs_;
  ++phases_.back().runs;
}

void RoundProfiler::on_send(std::size_t round, net::NodeId from, net::NodeId to,
                            const net::Word& word, std::size_t edge_words) {
  (void)from, (void)to, (void)edge_words;
  RoundSample& s = sample(round);
  ++s.sent;
  if (word.quantum) ++s.quantum_words;
  if (PhaseSpan* span = open_span()) ++span->sent;
}

void RoundProfiler::on_delivery(std::size_t round, net::NodeId from, net::NodeId to,
                                net::DeliveryFate fate, bool corrupted,
                                bool duplicated) {
  (void)from, (void)to;
  RoundSample& s = sample(round);
  if (fate == net::DeliveryFate::kDelivered) {
    ++s.delivered;
    if (corrupted) ++s.corrupted;
    if (duplicated) ++s.duplicated;
    if (PhaseSpan* span = open_span()) ++span->delivered;
  } else {
    ++s.dropped;
    if (PhaseSpan* span = open_span()) ++span->dropped;
  }
}

void RoundProfiler::on_retransmission(std::size_t round) {
  ++sample(round).retransmissions;
  if (PhaseSpan* span = open_span()) ++span->retransmissions;
}

void RoundProfiler::on_round_end(std::size_t round) {
  sample(round);  // materialize silent rounds so series length == rounds run
  if (PhaseSpan* span = open_span()) {
    span->rounds = rounds_.size() - span->first_round;
  }
}

void RoundProfiler::on_run_end(const net::RunResult& stats) {
  (void)stats;
  if (span_open_ && span_auto_) close_span();
}

}  // namespace qcongest::obs
