#include "core/extraction.hpp"

#include <algorithm>
#include <cctype>
#include <memory>
#include <set>

#include "common/strings.hpp"
#include "core/detect_scratch.hpp"
#include "obs/profile/profile.hpp"
#include "nlp/camel_case.hpp"
#include "nlp/tokenizer.hpp"

namespace intellog::core {

namespace {

const std::set<std::string>& unit_words() {
  static const std::set<std::string> kUnits = {
      "b",       "kb",     "mb",      "gb",      "tb",     "kib",     "mib",    "gib",
      "byte",    "bytes",  "ms",      "msec",    "msecs",  "s",       "sec",    "secs",
      "second",  "seconds", "minute", "minutes", "hour",   "hours",   "percent", "%",
      "vcores",  "vcore",  "times",   "mhz"};
  return kUnits;
}

bool noun_tag(nlp::PosTag t) { return nlp::is_noun(t); }
bool adj_tag(nlp::PosTag t) { return t == nlp::PosTag::JJ; }

// Strips sentence punctuation stuck to a field ("3)." -> "3") while keeping
// punctuation that belongs to the token ("BlockManagerId(1)" intact).
std::string clean_field_text(std::string text) {
  while (!text.empty()) {
    const char c = text.back();
    if (c == '.' || c == ',' || c == ';') {
      text.pop_back();
    } else if (c == ')' && text.find('(') == std::string::npos) {
      text.pop_back();
    } else if (c == ']' && text.find('[') == std::string::npos) {
      text.pop_back();
    } else {
      break;
    }
  }
  while (!text.empty()) {
    const char c = text.front();
    if ((c == '(' && text.find(')') == std::string::npos) ||
        (c == '[' && text.find(']') == std::string::npos)) {
      text.erase(text.begin());
    } else {
      break;
    }
  }
  return text;
}

// clean_field_text without the copy: the same trims expressed as
// remove_suffix/remove_prefix on a view. Must stay behavior-identical —
// instantiate()'s two code paths feed the same bytes through either one.
std::string_view clean_field_view(std::string_view text) {
  while (!text.empty()) {
    const char c = text.back();
    if (c == '.' || c == ',' || c == ';') {
      text.remove_suffix(1);
    } else if (c == ')' && text.find('(') == std::string_view::npos) {
      text.remove_suffix(1);
    } else if (c == ']' && text.find('[') == std::string_view::npos) {
      text.remove_suffix(1);
    } else {
      break;
    }
  }
  while (!text.empty()) {
    const char c = text.front();
    if ((c == '(' && text.find(')') == std::string_view::npos) ||
        (c == '[' && text.find(']') == std::string_view::npos)) {
      text.remove_prefix(1);
    } else {
      break;
    }
  }
  return text;
}

}  // namespace

bool InfoExtractor::is_unit_word(std::string_view lower_word) {
  return unit_words().count(std::string(lower_word)) > 0;
}

std::string InfoExtractor::infer_id_type(std::string_view value, std::string_view prev_word) {
  const auto upper = [](std::string_view s) {
    std::string out;
    for (char c : s) {
      if (std::isalpha(static_cast<unsigned char>(c)))
        out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      else
        break;
    }
    return out;
  };
  const std::size_t underscore = value.find('_');
  if (underscore != std::string_view::npos && underscore > 0) {
    const std::string t = upper(value.substr(0, underscore));
    if (!t.empty()) return t;
  }
  if (!prev_word.empty() && common::has_letter(prev_word)) {
    const std::string t = upper(prev_word);
    if (!t.empty()) return t;
  }
  const std::string t = upper(value);
  return t.empty() ? std::string("ID") : t;
}

std::vector<std::string> align_fields(const std::vector<std::string>& key_tokens,
                                      const std::vector<std::string>& message_ws_tokens,
                                      std::vector<int>* ws_field_index) {
  const std::vector<std::string_view> tokens(message_ws_tokens.begin(),
                                             message_ws_tokens.end());
  logparse::AlignScratch scratch;
  logparse::FieldLayout layout;
  layout.assign(key_tokens, tokens, scratch);
  std::vector<std::string> fields(layout.fields.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const int f = layout.token_field[i];
    if (f == logparse::FieldLayout::kConstant) continue;
    std::string& slot = fields[static_cast<std::size_t>(f)];
    if (!slot.empty()) slot += ' ';
    slot += tokens[i];
  }
  if (ws_field_index) *ws_field_index = std::move(layout.token_field);
  return fields;
}

struct InfoExtractor::Analysis {
  std::vector<nlp::Token> tokens;  ///< tagged sub-tokens of the sample
  std::vector<int> field_of;       ///< per sub-token: field index or -1
  std::vector<std::string> field_texts;
  std::vector<FieldInfo> fields;
  struct EntitySpan {
    std::string phrase;       ///< lemmatized, space-joined
    std::size_t begin, end;   ///< covered sub-token range [begin, end]
  };
  std::vector<EntitySpan> entities;
  std::vector<nlp::ClauseParse> clauses;
};

InfoExtractor::InfoExtractor() : lemmatizer_(&tagger_.lexicon()) {}

InfoExtractor::Analysis InfoExtractor::analyze(const std::vector<std::string>& key_tokens,
                                               std::string_view sample_message) const {
  Analysis a;
  const std::vector<std::string> ws = common::split_ws(sample_message);
  std::vector<int> ws_field;
  a.field_texts = align_fields(key_tokens, ws, &ws_field);

  // Sub-tokenize each whitespace token; sub-tokens inherit the field index.
  std::vector<std::string> sub_texts;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    for (auto& piece : nlp::tokenize(ws[i])) {
      sub_texts.push_back(std::move(piece));
      a.field_of.push_back(ws_field[i]);
    }
  }
  a.tokens = tagger_.tag(sub_texts);

  // --- classify the variable fields (§3.1 heuristics, in order) ----------
  const std::size_t nfields = a.field_texts.size();
  a.fields.assign(nfields, FieldInfo{});
  // Sub-token ranges per field.
  std::vector<std::vector<std::size_t>> field_tokens(nfields);
  for (std::size_t i = 0; i < a.tokens.size(); ++i) {
    if (a.field_of[i] >= 0) field_tokens[static_cast<std::size_t>(a.field_of[i])].push_back(i);
  }
  const auto prev_letter_word = [&](std::size_t i) -> const nlp::Token* {
    for (std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - 1; j >= 0; --j) {
      const auto idx = static_cast<std::size_t>(j);
      if (common::has_letter(a.tokens[idx].text)) return &a.tokens[idx];
    }
    return nullptr;
  };
  for (std::size_t f = 0; f < nfields; ++f) {
    FieldInfo& info = a.fields[f];
    const auto& toks = field_tokens[f];
    if (toks.empty()) continue;
    // Heuristic 1a: locality patterns recognized earlier win.
    bool loc = false, verb = false;
    for (const std::size_t i : toks) {
      if (locality_.is_locality(a.tokens[i].text)) loc = true;
      if (nlp::is_verb(a.tokens[i].tag)) verb = true;
    }
    if (loc) {
      info.category = FieldCategory::Locality;
      continue;
    }
    // Heuristic 1b: verb-tagged fields are neither identifier nor value.
    if (verb) {
      info.category = FieldCategory::Other;
      continue;
    }
    // Heuristic 2: a field followed by a unit is a value. The unit may also
    // be fused into the field itself ("4ms" tokenizes to [4, ms] inside one
    // field).
    const std::size_t last = toks.back();
    if (last + 1 < a.tokens.size() && a.field_of[last + 1] < 0 &&
        is_unit_word(a.tokens[last + 1].lower)) {
      info.category = FieldCategory::Value;
      info.unit = a.tokens[last + 1].lower;
      continue;
    }
    if (toks.size() >= 2 && is_unit_word(a.tokens[last].lower) &&
        a.tokens[last - 1].tag == nlp::PosTag::CD) {
      info.category = FieldCategory::Value;
      info.unit = a.tokens[last].lower;
      continue;
    }
    // Heuristic 3: mixed letters and numbers -> identifier.
    const std::string joined = clean_field_text(a.field_texts[f]);
    if (common::has_letter(joined) && common::has_digit(joined)) {
      info.category = FieldCategory::Identifier;
      const nlp::Token* prev = prev_letter_word(toks.front());
      info.id_type = infer_id_type(joined, prev ? prev->lower : std::string_view{});
      continue;
    }
    // Heuristic 4: all-number field -> identifier iff previous word is a noun.
    if (common::is_number(joined)) {
      const nlp::Token* prev = prev_letter_word(toks.front());
      if (prev && noun_tag(prev->tag) && !is_unit_word(prev->lower)) {
        info.category = FieldCategory::Identifier;
        info.id_type = infer_id_type(joined, prev->lower);
      } else {
        info.category = FieldCategory::Value;
      }
      continue;
    }
    info.category = FieldCategory::Other;
  }

  // --- entity stream + Table-2 pattern matching ---------------------------
  struct Item {
    std::string word;  ///< lower-cased word (camel part)
    nlp::PosTag tag;
    std::size_t src;   ///< sub-token index
  };
  std::vector<std::vector<Item>> runs(1);
  const auto break_run = [&] {
    if (!runs.back().empty()) runs.emplace_back();
  };
  for (std::size_t i = 0; i < a.tokens.size(); ++i) {
    const nlp::Token& tok = a.tokens[i];
    const int f = a.field_of[i];
    if (f >= 0) {
      const FieldCategory cat = a.fields[static_cast<std::size_t>(f)].category;
      if (cat != FieldCategory::Other) {
        break_run();
        continue;
      }
      // Variable fields only contribute entities when they look like class
      // names (camel case with a real case boundary); free words, user
      // names and dotted config keys ("mapred.job.id") do not.
      const bool has_upper = std::any_of(tok.text.begin(), tok.text.end(),
                                         [](unsigned char ch) { return std::isupper(ch); });
      const bool has_lower = std::any_of(tok.text.begin(), tok.text.end(),
                                         [](unsigned char ch) { return std::islower(ch); });
      if (!has_upper || !has_lower || !nlp::is_camel_case(tok.text) ||
          tok.text.find('.') != std::string::npos) {
        break_run();
        continue;
      }
    }
    if (tok.tag == nlp::PosTag::PUNCT || tok.tag == nlp::PosTag::SYM ||
        tok.tag == nlp::PosTag::CD) {
      break_run();
      continue;
    }
    if (tok.tag == nlp::PosTag::DT) continue;  // determiners are transparent
    if (nlp::is_verb(tok.tag) || tok.tag == nlp::PosTag::RB || tok.tag == nlp::PosTag::TO ||
        tok.tag == nlp::PosTag::MD || tok.tag == nlp::PosTag::CC ||
        tok.tag == nlp::PosTag::PRP || tok.tag == nlp::PosTag::PRPS) {
      break_run();
      continue;
    }
    if (nlp::is_atomic_token(tok.text)) {
      break_run();
      continue;
    }
    // Dotted tokens in constant text are config keys, class names or FQDNs
    // ("mapred.job.id", "org.apache.hadoop...Shuffle"), not entities.
    if (tok.text.find('.') != std::string::npos) {
      break_run();
      continue;
    }
    if (is_unit_word(tok.lower)) {
      break_run();
      continue;
    }
    if (tok.tag == nlp::PosTag::IN) {
      // Only "of" participates in the NN IN NN pattern (Justeson-Katz);
      // other prepositions separate noun phrases.
      if (tok.lower == "of") {
        runs.back().push_back({tok.lower, nlp::PosTag::IN, i});
      } else {
        break_run();
      }
      continue;
    }
    // Camel-case filter: split class names into word phrases (§3.1).
    const auto parts = nlp::split_camel_case(tok.text);
    if (parts.size() >= 2) {
      for (const auto& p : parts) {
        if (!common::has_letter(p)) continue;
        nlp::PosTag t = nlp::PosTag::NN;
        if (const auto entry = tagger_.lexicon().lookup(p)) {
          t = nlp::is_noun(entry->primary) || adj_tag(entry->primary) ? entry->primary
                                                                      : nlp::PosTag::NN;
        }
        runs.back().push_back({p, t, i});
      }
      continue;
    }
    if (noun_tag(tok.tag) || adj_tag(tok.tag)) {
      runs.back().push_back({tok.lower, tok.tag, i});
    } else {
      break_run();
    }
  }

  // Longest-match-first scan of the Table-2 patterns.
  using Pat = std::vector<char>;  // 'N' noun, 'J' adjective, 'I' preposition
  static const std::vector<Pat> kPatterns3 = {
      {'N', 'N', 'N'}, {'J', 'J', 'N'}, {'J', 'N', 'N'}, {'N', 'J', 'N'}, {'N', 'I', 'N'}};
  static const std::vector<Pat> kPatterns2 = {{'J', 'N'}, {'N', 'N'}};
  const auto matches = [&](const Item& it, char c) {
    switch (c) {
      case 'N': return noun_tag(it.tag);
      case 'J': return adj_tag(it.tag);
      case 'I': return it.tag == nlp::PosTag::IN;
    }
    return false;
  };
  for (const auto& run : runs) {
    std::size_t i = 0;
    while (i < run.size()) {
      std::size_t len = 0;
      if (i + 3 <= run.size()) {
        for (const auto& p : kPatterns3) {
          if (matches(run[i], p[0]) && matches(run[i + 1], p[1]) && matches(run[i + 2], p[2])) {
            len = 3;
            break;
          }
        }
      }
      if (len == 0 && i + 2 <= run.size()) {
        for (const auto& p : kPatterns2) {
          if (matches(run[i], p[0]) && matches(run[i + 1], p[1])) {
            len = 2;
            break;
          }
        }
      }
      if (len == 0 && matches(run[i], 'N')) len = 1;
      if (len == 0) {
        ++i;
        continue;
      }
      std::vector<std::string> words;
      for (std::size_t k = 0; k < len; ++k) words.push_back(run[i + k].word);
      words = lemmatizer_.lemmatize_phrase(std::move(words));
      a.entities.push_back(
          {common::join(words, " "), run[i].src, run[i + len - 1].src});
      i += len;
    }
  }

  // --- operations via structure parsing ------------------------------------
  a.clauses = parser_.parse(a.tokens);
  return a;
}

IntelKey InfoExtractor::extract(const logparse::LogKey& key,
                                std::string_view sample_message) const {
  PROF_FRAME("extract.key");
  Analysis a = analyze(key.tokens, sample_message);

  IntelKey ik;
  ik.key_id = key.id;
  ik.key_text = key.to_string();
  ik.fields = a.fields;

  std::set<std::string> seen;
  for (const auto& span : a.entities) {
    if (seen.insert(span.phrase).second) ik.entities.push_back(span.phrase);
  }

  const auto entity_at = [&](std::ptrdiff_t tok) -> std::string {
    if (tok < 0) return {};
    const auto t = static_cast<std::size_t>(tok);
    for (const auto& span : a.entities) {
      if (span.begin <= t && t <= span.end) return span.phrase;
    }
    // Identifier/value/locality tokens are not entities; the entity is the
    // noun phrase naming them ("Registering BlockManager bm_1" -> the obj
    // is "block manager", not the id). Walk left within the noun phrase.
    if (a.field_of[t] >= 0 &&
        a.fields[static_cast<std::size_t>(a.field_of[t])].category != FieldCategory::Other) {
      for (std::ptrdiff_t j = tok - 1; j >= 0 && tok - j <= 3; --j) {
        const auto u = static_cast<std::size_t>(j);
        if (a.tokens[u].tag == nlp::PosTag::PUNCT || a.tokens[u].tag == nlp::PosTag::SYM)
          continue;
        for (const auto& span : a.entities) {
          if (span.begin <= u && u <= span.end) return span.phrase;
        }
        break;
      }
      return {};
    }
    // Plain word with no span: use the word itself, lemmatized.
    return lemmatizer_.lemma(a.tokens[t].lower);
  };
  const auto verb_lemma = [&](std::size_t tok) {
    return lemmatizer_.lemma(a.tokens[tok].lower);
  };

  for (const auto& clause : a.clauses) {
    if (clause.nominal_root || clause.root < 0) continue;
    const std::size_t root = static_cast<std::size_t>(clause.root);
    std::ptrdiff_t subj = clause.dependent_of(root, nlp::Relation::Nsubj);
    if (subj < 0) subj = clause.dependent_of(root, nlp::Relation::Nsubjpass);
    const std::string subj_phrase = entity_at(subj);

    // Predicates: the root plus every xcomp verb.
    std::vector<std::size_t> predicates{root};
    for (const auto& d : clause.deps) {
      if (d.rel == nlp::Relation::Xcomp && d.dependent != root &&
          nlp::is_verb(a.tokens[d.dependent].tag)) {
        predicates.push_back(d.dependent);
      }
    }
    for (const std::size_t pred : predicates) {
      Operation op;
      op.subj = subj_phrase;
      op.predicate = verb_lemma(pred);
      std::ptrdiff_t obj = clause.dependent_of(pred, nlp::Relation::Dobj);
      if (obj < 0) obj = clause.dependent_of(pred, nlp::Relation::Iobj);
      if (obj < 0) obj = clause.dependent_of(pred, nlp::Relation::Nmod);
      op.obj = entity_at(obj);
      if (std::find(ik.operations.begin(), ik.operations.end(), op) == ik.operations.end()) {
        ik.operations.push_back(std::move(op));
      }
    }
  }
  return ik;
}

InfoExtractor::Unexpected InfoExtractor::extract_unexpected(std::string_view message) const {
  PROF_FRAME("extract.unexpected");
  // Build a pseudo log key by masking digit-bearing tokens, then reuse the
  // regular pipeline. Used for unexpected messages in detection (§4.2).
  Unexpected out;
  out.key.id = -1;
  for (const auto& tok : common::split_ws(message)) {
    if (common::has_digit(tok)) {
      if (out.key.tokens.empty() || out.key.tokens.back() != "*") out.key.tokens.emplace_back("*");
    } else {
      out.key.tokens.push_back(tok);
    }
  }
  out.intel_key = extract(out.key, message);
  return out;
}

IntelMessage InfoExtractor::instantiate(const IntelKey& ikey, const logparse::LogKey& key,
                                        const logparse::LogRecord& record) const {
  // Fallback for call sites without their own scratch (training stage 3b,
  // checkpoint replay): one scratch per thread, rewound per call — nothing
  // from it escapes instantiate.
  thread_local DetectScratch scratch;
  scratch.reset_session();
  return instantiate(ikey, key, record, scratch);
}

std::vector<InfoExtractor::IdentifierSlot> InfoExtractor::identifier_slots(
    const IntelKey& ikey) {
  std::vector<IdentifierSlot> slots;
  for (std::size_t f = 0; f < ikey.fields.size(); ++f) {
    if (ikey.fields[f].category == FieldCategory::Identifier) {
      slots.push_back({f, ikey.fields[f].id_type});
    }
  }
  return slots;
}

std::span<const IdentifierView> InfoExtractor::capture_identifiers(
    std::span<const IdentifierSlot> slots, const logparse::LogKey& key,
    const logparse::FieldLayout* layout, DetectScratch& s) {
  PROF_FRAME("extract.instantiate");
  if (slots.empty()) return {};
  if (layout == nullptr) {
    s.layout.assign(key.tokens, s.ws, s.align);
    layout = &s.layout;
  }
  auto* const out = static_cast<IdentifierView*>(
      s.arena.allocate(slots.size() * sizeof(IdentifierView), alignof(IdentifierView)));
  std::size_t n = 0;
  for (const IdentifierSlot& slot : slots) {
    if (slot.field >= layout->fields.size()) break;  // slots are in field order
    const std::string_view text = clean_field_view(layout->text(slot.field, s.ws, s.arena));
    if (text.empty()) continue;
    const std::string_view type =
        slot.type.empty() ? s.arena.copy(infer_id_type(text, {})) : slot.type;
    std::construct_at(out + n++, IdentifierView{type, text});
  }
  return {out, n};
}

IntelMessage InfoExtractor::instantiate(const IntelKey& ikey, const logparse::LogKey& key,
                                        const logparse::LogRecord& record,
                                        DetectScratch& s) const {
  PROF_FRAME("extract.instantiate");
  IntelMessage msg;
  msg.key_id = ikey.key_id;
  msg.timestamp_ms = record.timestamp_ms;
  msg.container_id = record.container_id;

  common::split_ws_views(record.content, s.ws);
  s.layout.assign(key.tokens, s.ws, s.align);
  const std::size_t n = std::min(s.layout.fields.size(), ikey.fields.size());
  for (std::size_t f = 0; f < n; ++f) {
    const std::string_view text = clean_field_view(s.layout.text(f, s.ws, s.arena));
    if (text.empty()) continue;
    switch (ikey.fields[f].category) {
      case FieldCategory::Identifier: {
        std::string type = ikey.fields[f].id_type;
        if (type.empty()) type = infer_id_type(text, {});
        msg.identifiers.push_back({std::move(type), std::string(text)});
        break;
      }
      case FieldCategory::Value:
        msg.values.emplace_back(std::string(text), ikey.fields[f].unit);
        break;
      case FieldCategory::Locality:
        msg.localities.emplace_back(text);
        break;
      default:
        msg.others.emplace_back(text);
    }
  }
  return msg;
}

}  // namespace intellog::core
