#include "simsys/event_sim.hpp"

#include <algorithm>

#include "obs/stages.hpp"

namespace intellog::simsys {

SessionBuilder::SessionBuilder(const TemplateCorpus& corpus, std::string container_id,
                               std::string node, std::uint64_t start_ms, common::Rng rng)
    : corpus_(corpus),
      container_id_(std::move(container_id)),
      node_(std::move(node)),
      now_ms_(start_ms),
      rng_(rng) {}

void SessionBuilder::emit(std::string_view tmpl_name, std::vector<std::string> values,
                          bool injected) {
  const LogTemplate& tmpl = corpus_.by_name(tmpl_name);
  Emitted& e = records_.emplace_back();
  logparse::LogRecord& rec = e.record;
  rec.content = tmpl.render(values, &e.truth);
  e.truth.system = corpus_.system();
  e.truth.injected_anomaly = injected;
  rec.level = tmpl.level;
  rec.source = tmpl.source;
  rec.timestamp_ms = now_ms_;
  rec.container_id = container_id_;
  advance(1, 30);
}

void SessionBuilder::advance(std::uint64_t min_ms, std::uint64_t max_ms) {
  now_ms_ += min_ms + rng_.uniform(max_ms - min_ms + 1);
}

SessionBuilder SessionBuilder::fork(std::uint64_t offset_ms) {
  return SessionBuilder(corpus_, container_id_, node_, now_ms_ + offset_ms, rng_.fork());
}

void SessionBuilder::absorb(SessionBuilder&& thread) {
  records_.insert(records_.end(), std::make_move_iterator(thread.records_.begin()),
                  std::make_move_iterator(thread.records_.end()));
  now_ms_ = std::max(now_ms_, thread.now_ms_);
}

void SessionBuilder::truncate_after(std::uint64_t cutoff_ms) {
  std::erase_if(records_, [cutoff_ms](const Emitted& e) {
    return e.record.timestamp_ms > cutoff_ms;
  });
  now_ms_ = std::min(now_ms_, cutoff_ms);
}

logparse::Session SessionBuilder::finish(std::vector<logparse::GroundTruth>* truth) {
  OBS_STAGE("simsys.session_finish");
  std::stable_sort(records_.begin(), records_.end(), [](const Emitted& a, const Emitted& b) {
    return a.record.timestamp_ms < b.record.timestamp_ms;
  });
  logparse::Session s;
  s.container_id = container_id_;
  s.system = corpus_.system();
  s.records.reserve(records_.size());
  if (truth != nullptr) truth->reserve(truth->size() + records_.size());
  for (Emitted& e : records_) {
    s.records.push_back(std::move(e.record));
    if (truth != nullptr) truth->push_back(std::move(e.truth));
  }
  records_.clear();
  return s;
}

}  // namespace intellog::simsys
