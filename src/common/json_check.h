#pragma once

// Structural JSON validation for the Chrome trace-event export. This is a
// well-formedness scanner, not a DOM parser: it verifies syntax (strings,
// numbers, nesting, commas) in one pass with no allocation proportional to
// input size, and reports the byte offset of the first defect in a
// descriptive Status.

#include <string_view>

#include "common/status.h"

namespace blend {

/// OK iff `text` is exactly one well-formed JSON value (object, array,
/// string, number, true/false/null) with nothing but whitespace around it.
Status ValidateJson(std::string_view text);

/// Appends `s` to *out as a JSON string literal, escaping quotes,
/// backslashes, and control characters. The trace exporter's one
/// JSON-string producer, so ValidateJson always accepts what it emits.
void AppendJsonString(std::string_view s, std::string* out);

}  // namespace blend
