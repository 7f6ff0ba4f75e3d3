#ifndef FRONTIERS_OBS_JSON_H_
#define FRONTIERS_OBS_JSON_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace frontiers::obs {

/// A parsed JSON value.  This is the *reading* half of the observability
/// subsystem: the trace layer and the bench reporter only ever *emit* JSON
/// (hand-serialized, no tree needed), while the telemetry validator
/// (tools/validate_telemetry.cc) and the obs tests parse what was emitted
/// back into this tree to check it is well-formed.  Zero dependencies by
/// design: the repo bakes in no JSON library.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered key/value pairs (duplicate keys are kept as-is).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsNull() const { return type == Type::kNull; }
  bool IsBool() const { return type == Type::kBool; }
  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsObject() const { return type == Type::kObject; }

  /// First value under `key`, or nullptr if absent (objects only).
  const JsonValue* Find(std::string_view key) const;
  /// True if the object has `key`.
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
};

/// Parses `text` as a single JSON value (trailing whitespace allowed,
/// trailing garbage rejected).  Strict enough for round-tripping our own
/// output: strings with escapes (incl. \uXXXX), numbers, nested
/// arrays/objects.  Errors carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

/// Escapes `text` for embedding inside a JSON string literal (quotes not
/// included).  The emitting half shares this with bench/report.h.
std::string JsonEscape(std::string_view text);

/// Reads the whole file at `path` into `*out`; false if it cannot be opened.
/// The telemetry tools read every input through this.
bool ReadFile(const std::string& path, std::string* out);

}  // namespace frontiers::obs

#endif  // FRONTIERS_OBS_JSON_H_
