// The kit's one JSON string quoter, shared by every report writer: the
// grader's report lines, analyze::Diagnostic and ConcurSummary JSON,
// and the bench_* JSON reports.
//
// RFC 8259 requires every byte below 0x20 to be escaped inside a
// string. Quote, backslash, newline and tab get their short escapes;
// every other control byte becomes \u00XX. Bytes >= 0x20 pass through
// unchanged, so UTF-8 text stays readable.
#pragma once

#include <cstdio>
#include <string>

namespace cs31::common {

[[nodiscard]] inline std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace cs31::common
