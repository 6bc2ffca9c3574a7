// Table 4: accuracy of information extraction per system.
//
// The paper scores Intel Keys by manual comparison against the source
// code's logging statements. Here the simulator *is* the source code: each
// line has a ground-truth annotation (template id, field categories,
// entity phrases, operation predicates), so the comparison is exact. Paper
// numbers for reference:
//   Spark:     60 keys, entities 63/3/0, ids 19/1/1, values 13/1/0,
//              locations 9/0/1, operations 63/5
//   MapReduce: 44 keys, entities 43/9/2, ids 11/1/1, values 41/1/1,
//              locations 1/0/0, operations 45/5
//   Tez:      115 keys, entities 101/2/3, ids 13/0/3, values 43/3/0,
//              locations 3/0/0, operations 97/7
#include <map>
#include <set>

#include "bench/harness.hpp"
#include "common/table.hpp"

using namespace intellog;

namespace {

struct CategoryScore {
  std::size_t total = 0, fp = 0, fn = 0;
  std::string cell() const {
    return std::to_string(total) + " / " + std::to_string(fp) + " / " + std::to_string(fn);
  }
};

struct SystemScore {
  std::size_t consumed = 0;
  std::size_t intel_keys = 0;
  CategoryScore entities, identifiers, values, locations;
  std::size_t ops_total = 0, ops_missed = 0;
};

SystemScore evaluate(const std::string& system) {
  std::vector<std::vector<logparse::GroundTruth>> truth;
  const auto sessions = bench::training_corpus(system, 40, 42, &truth);
  core::IntelLog il;
  il.train(sessions);

  SystemScore score;
  score.intel_keys = il.intel_keys().size();

  // Representative ground truth per log key: the first training record that
  // matches it (the same record extraction sampled).
  std::map<int, const logparse::GroundTruth*> truth_of;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& records = sessions[i].records;
    score.consumed += records.size();
    for (std::size_t r = 0; r < records.size(); ++r) {
      const int id = il.spell().match(records[r].content);
      if (id >= 0) truth_of.emplace(id, &truth[i][r]);
    }
  }

  // --- entities: unique lemmatized phrases per system ----------------------
  std::set<std::string> truth_entities, extracted_entities;
  for (const auto& [id, ik] : il.intel_keys()) {
    extracted_entities.insert(ik.entities.begin(), ik.entities.end());
    const auto it = truth_of.find(id);
    if (it != truth_of.end()) {
      truth_entities.insert(it->second->entities.begin(), it->second->entities.end());
    }
  }
  score.entities.total = truth_entities.size();
  for (const auto& e : extracted_entities) score.entities.fp += !truth_entities.count(e);
  for (const auto& e : truth_entities) score.entities.fn += !extracted_entities.count(e);

  // --- variable fields: per-key category counts -----------------------------
  using logparse::FieldCategory;
  const auto count_truth = [](const logparse::GroundTruth& t, FieldCategory c) {
    std::size_t n = 0;
    for (const auto& f : t.fields) n += f.category == c;
    return n;
  };
  const auto count_extracted = [](const core::IntelKey& ik, FieldCategory c) {
    std::size_t n = 0;
    for (const auto& f : ik.fields) n += f.category == c;
    return n;
  };
  const auto score_category = [&](FieldCategory c, CategoryScore& out) {
    for (const auto& [id, ik] : il.intel_keys()) {
      const auto it = truth_of.find(id);
      if (it == truth_of.end()) continue;
      const std::size_t t = count_truth(*it->second, c);
      const std::size_t e = count_extracted(ik, c);
      out.total += t;
      out.fp += e > t ? e - t : 0;
      out.fn += t > e ? t - e : 0;
    }
  };
  score_category(FieldCategory::Identifier, score.identifiers);
  score_category(FieldCategory::Value, score.values);
  score_category(FieldCategory::Locality, score.locations);

  // --- operations: predicate lemmas; no-false-positive convention (§6.2) ---
  for (const auto& [id, ik] : il.intel_keys()) {
    const auto it = truth_of.find(id);
    if (it == truth_of.end()) continue;
    std::set<std::string> extracted_preds;
    for (const auto& op : ik.operations) extracted_preds.insert(op.predicate);
    for (const auto& pred : it->second->operations) {
      ++score.ops_total;
      score.ops_missed += !extracted_preds.count(pred);
    }
  }
  return score;
}

}  // namespace

int main() {
  bench::print_header("Table 4: information-extraction accuracy (Total / FP / FN)");
  common::TextTable table({"Framework", "Consumed", "Intel Keys", "Entities", "Identifiers",
                           "Values", "Locations", "Operations (T / missed)"});
  for (const auto& system : bench::systems()) {
    const SystemScore s = evaluate(system);
    table.add_row({system, std::to_string(s.consumed), std::to_string(s.intel_keys),
                   s.entities.cell(), s.identifiers.cell(), s.values.cell(),
                   s.locations.cell(),
                   std::to_string(s.ops_total) + " / " + std::to_string(s.ops_missed)});
  }
  table.print(std::cout);
  std::cout << "\nPaper (Table 4): Spark 63/3/0 ids 19/1/1 vals 13/1/0 locs 9/0/1 ops 63/5;\n"
               "MapReduce 43/9/2 ids 11/1/1 vals 41/1/1 locs 1/0/0 ops 45/5;\n"
               "Tez 101/2/3 ids 13/0/3 vals 43/3/0 locs 3/0/0 ops 97/7.\n"
               "Shape expectation: high accuracy everywhere, a handful of FP entities\n"
               "(abbreviations), FN entities only from 4+-word phrases, operations missed\n"
               "only on clause-less sentences.\n";
  return 0;
}
