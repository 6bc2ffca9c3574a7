// NLP-assisted information extraction (§3): log key + sample message ->
// Intel Key; concrete message + Intel Key -> Intel Message.
//
// Pipeline (Fig. 3 / Fig. 4):
//  1. A log key contains '*' fields, so the POS tagger runs on a *sample
//     log message* and the tags are transferred back (the key's variable
//     positions are recovered by aligning the key's constant tokens to the
//     sample with an LCS).
//  2. Entities come from the Table-2 POS patterns over nouns/adjectives
//     (longest match first) plus the camel-case filter; phrases are
//     lemmatized to singular. Unit words ("bytes", "ms") are omitted.
//  3. Variable fields are classified by the four §3.1 heuristics:
//     verb-tagged and locality fields are filtered first, then
//     number+unit -> value, letter+digit mix -> identifier, bare number ->
//     identifier iff the preceding word is a noun.
//  4. Operations come from the shallow UD parse: {subj-entity, predicate,
//     obj-entity} via the Table-3 relations.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/intel_key.hpp"
#include "core/locality.hpp"
#include "logparse/spell.hpp"
#include "nlp/dependency_parser.hpp"
#include "nlp/lemmatizer.hpp"
#include "nlp/pos_tagger.hpp"

namespace intellog::core {

struct DetectScratch;

class InfoExtractor {
 public:
  InfoExtractor();

  // The lemmatizer points into this object's own lexicon, so moves must
  // re-seat that pointer.
  InfoExtractor(InfoExtractor&& other) noexcept
      : tagger_(std::move(other.tagger_)),
        lemmatizer_(&tagger_.lexicon()),
        parser_(std::move(other.parser_)),
        locality_(std::move(other.locality_)) {}
  InfoExtractor& operator=(InfoExtractor&& other) noexcept {
    tagger_ = std::move(other.tagger_);
    lemmatizer_ = nlp::Lemmatizer(&tagger_.lexicon());
    parser_ = std::move(other.parser_);
    locality_ = std::move(other.locality_);
    return *this;
  }
  InfoExtractor(const InfoExtractor&) = delete;
  InfoExtractor& operator=(const InfoExtractor&) = delete;

  /// Builds the Intel Key for a Spell log key using a sample message that
  /// matched the key.
  IntelKey extract(const logparse::LogKey& key, std::string_view sample_message) const;

  /// An unexpected message's pseudo log key — its tokens with each run of
  /// digit-bearing tokens masked to one '*' — and the Intel Key extracted
  /// over it.
  struct Unexpected {
    logparse::LogKey key;
    IntelKey intel_key;
  };

  /// §4.2: extracts directly from an unexpected message (no log key).
  Unexpected extract_unexpected(std::string_view message) const;

  /// Fills an Intel Message from a concrete record matching `key`.
  /// Delegates to the scratch overload via a thread-local DetectScratch.
  IntelMessage instantiate(const IntelKey& ikey, const logparse::LogKey& key,
                           const logparse::LogRecord& record) const;

  /// Allocation-lean instantiate for the detection hot path: tokenization,
  /// LCS alignment and field assembly all run in `scratch` (views + arena)
  /// instead of per-call heap vectors. Output is byte-identical to the
  /// 3-argument overload; only the escaping IntelMessage strings allocate.
  IntelMessage instantiate(const IntelKey& ikey, const logparse::LogKey& key,
                           const logparse::LogRecord& record, DetectScratch& scratch) const;

  /// One identifier field of an Intel Key, compiled for detection.
  struct IdentifierSlot {
    std::size_t field = 0;   ///< index of the key's '*' field
    std::string_view type;   ///< the field's id_type; empty: inferred per value
  };
  /// The identifier slots of `ikey`, in field order. The types view
  /// `ikey`, which must outlive them.
  static std::vector<IdentifierSlot> identifier_slots(const IntelKey& ikey);

  /// Detection's identifier extraction: exactly the identifiers
  /// instantiate() would put in IntelMessage::identifiers, in the same
  /// order, as views. `scratch.ws` must hold the record's whitespace
  /// tokens. With a `layout` (Spell's, for the record's shape under `key`)
  /// the fields are read straight off the tokens; without one the tokens
  /// are aligned with `key` first. Values view the record content or
  /// `scratch.arena`, types view the slots or the arena; the returned
  /// array lives in the arena.
  static std::span<const IdentifierView> capture_identifiers(
      std::span<const IdentifierSlot> slots, const logparse::LogKey& key,
      const logparse::FieldLayout* layout, DetectScratch& scratch);

  /// Infers the identifier type of a concrete identifier value
  /// ("attempt_01" -> "ATTEMPT", "3" after "TID" -> "TID").
  static std::string infer_id_type(std::string_view value, std::string_view prev_word);

  /// True for unit words that follow values ("bytes", "ms", "MB", ...).
  static bool is_unit_word(std::string_view lower_word);

  const nlp::PosTagger& tagger() const { return tagger_; }
  LocalityMatcher& locality() { return locality_; }

 private:
  struct Analysis;  // internal working state

  Analysis analyze(const std::vector<std::string>& key_tokens,
                   std::string_view sample_message) const;

  nlp::PosTagger tagger_;
  nlp::Lemmatizer lemmatizer_;
  nlp::DependencyParser parser_;
  LocalityMatcher locality_;
};

/// Returns, for each '*' gap of the key (in order), the message's
/// whitespace tokens filling that gap, joined by single spaces
/// (logparse::FieldLayout::assign gives the rule). `ws_field_index`
/// receives each token's field index, -1 for matched constants.
std::vector<std::string> align_fields(const std::vector<std::string>& key_tokens,
                                      const std::vector<std::string>& message_ws_tokens,
                                      std::vector<int>* ws_field_index = nullptr);

}  // namespace intellog::core
