#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/net/fault.hpp"

namespace qcongest::cache {

/// The code-version salt baked into every cache key. Bump whenever a change
/// anywhere in the engine, apps, transport, recovery, or report layers can
/// alter the bytes a run produces — the key derivation has no way to see
/// such changes, so the salt is the invalidation lever ("invalidation by
/// code version", DESIGN.md §14). The suffix names the change that last
/// altered run-visible behaviour: the reliable transport's horizon
/// synchronizer, which moved every reliable-transport report.
inline constexpr std::string_view kCodeVersionSalt = "qcongest-horizon-sync";

/// The effective salt: QCONGEST_CACHE_SALT when set and non-empty
/// (CI's invalidation smoke flips it to prove a full miss), else
/// kCodeVersionSalt.
std::string code_version_salt();

/// Render a double as a byte-stable canonical token: "f64:" followed by the
/// 16-hex-digit IEEE-754 bit pattern. Decimal formatting ("%g" and friends)
/// is locale- and libc-shaped; the bit pattern is exact on every platform,
/// which is what makes float-valued options (fault probabilities) safe to
/// hash. -0.0 and 0.0, or two doubles that merely print alike, get distinct
/// encodings — equal keys mean bit-equal inputs, never "close enough".
std::string canonical_double(double value);

/// Accumulates named fields of a job description and derives the cache key.
///
/// Canonicalization contract:
///  * fields serialize sorted by name — the call order at the use site can
///    never leak into the key (option-order independence);
///  * a field name may be set only once (a duplicate throws
///    std::logic_error: two writers disagreeing about a field is a bug at
///    the call site, not something to resolve silently);
///  * values are byte-stable encodings: integers in decimal, bools as 0/1,
///    doubles via canonical_double, strings verbatim with '\n' and '\\'
///    escaped so a value can never forge a field boundary.
class KeyBuilder {
 public:
  KeyBuilder& field(std::string_view name, std::string_view value);
  KeyBuilder& field(std::string_view name, const char* value) {
    return field(name, std::string_view(value));
  }
  KeyBuilder& field(std::string_view name, std::uint64_t value);
  KeyBuilder& field(std::string_view name, bool value);
  KeyBuilder& field(std::string_view name, double value);

  /// Add the fault plan under `prefix`: link rates, sorted per-edge
  /// overrides, sorted crash schedule, lottery seed. Two plans that differ
  /// only in container order of semantically unordered lists (crashes,
  /// edge overrides) produce identical fields.
  KeyBuilder& fault_plan(std::string_view prefix, const net::FaultPlan& plan);

  /// The canonical encoding: "name=value\n" lines sorted by name, prefixed
  /// with the builder schema tag. This is what gets hashed; exposed so
  /// tests can pin byte stability directly.
  std::string canonical() const;

  /// SHA-256 hex digest of canonical() — the content address.
  std::string digest() const;

 private:
  KeyBuilder& set(std::string_view name, std::string encoded);

  std::map<std::string, std::string> fields_;
};

}  // namespace qcongest::cache
