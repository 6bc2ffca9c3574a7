// Intel Keys and Intel Messages (§2.1, §3).
//
// An Intel Key is the paper's enhanced representation of a log key: the
// variable fields are classified (identifier / value / locality / other),
// identifiers carry inferred types, the constant text's entities are
// extracted as lemmatized phrases, and the sentence's operations are
// recorded as {subj-entity, predicate, obj-entity} triples.
//
// An Intel Message is a concrete log message matched against an Intel Key
// with the '*' fields replaced by the actual values — a key-value record
// that "naturally fits in the storage structure of time series databases".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "logparse/log_record.hpp"

namespace intellog::core {

using logparse::FieldCategory;

/// An operation extracted by structure parsing (§3.2). Empty strings mean
/// "no entity found for that slot".
struct Operation {
  std::string subj;
  std::string predicate;  ///< lemmatized
  std::string obj;

  bool operator==(const Operation&) const = default;
};

/// Classification of one variable field of a log key.
struct FieldInfo {
  FieldCategory category = FieldCategory::Other;
  std::string id_type;  ///< identifier type, e.g. "ATTEMPT" (Identifier only)
  std::string unit;     ///< unit word following the field (Value only)
};

/// The enhanced log key (§3.3, Fig. 4).
struct IntelKey {
  int key_id = -1;            ///< Spell log-key id (-1: built from a raw message)
  std::string key_text;       ///< display form, e.g. "* MapTask metrics system"
  std::vector<std::string> entities;  ///< lemmatized entity phrases
  std::vector<FieldInfo> fields;      ///< one per '*' in the key, in order
  std::vector<Operation> operations;
  bool kv_only = false;  ///< not natural language; ignored in detection (§5)

  common::Json to_json() const;
};

/// One identifier occurrence in a message.
struct IdentifierValue {
  std::string type;   ///< e.g. "ATTEMPT"
  std::string value;  ///< e.g. "attempt_01"
};

/// An identifier occurrence as views: detection's form of IdentifierValue.
/// The views point at whatever owns the bytes — the model's FieldInfo
/// id_type, the record's content, or a scratch arena (see GroupMessage).
struct IdentifierView {
  std::string_view type;
  std::string_view value;
};

/// A concrete message structured by its Intel Key (§3.3).
struct IntelMessage {
  int key_id = -1;
  std::uint64_t timestamp_ms = 0;
  std::string container_id;
  std::vector<IdentifierValue> identifiers;
  std::vector<std::pair<std::string, std::string>> values;  ///< (text, unit)
  std::vector<std::string> localities;
  std::vector<std::string> others;  ///< unclassified variable fields

  common::Json to_json() const;
};

}  // namespace intellog::core
