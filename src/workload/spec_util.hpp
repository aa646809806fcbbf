// Shared helpers for the declarative spec parsers (workload/spec.cpp and
// workload/experiment.cpp): typed field getters that turn JSON type errors
// into SpecError with the full field path, and unknown-key rejection.
//
// Internal detail namespace — not part of the workload API surface.
#pragma once

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <string>

#include "common/json.hpp"
#include "common/time.hpp"
#include "workload/spec_error.hpp"

namespace sgprs::workload::specdet {

[[noreturn]] inline void bad(const std::string& path, const std::string& msg) {
  throw SpecError(path, msg);
}

/// Unknown keys are errors, exactly like unknown CLI flags: a typo must not
/// silently become a default.
inline void check_keys(const common::JsonValue& obj,
                       std::initializer_list<const char*> allowed,
                       const std::string& path) {
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string names;
      for (const char* a : allowed) {
        if (!names.empty()) names += ", ";
        names += a;
      }
      bad(path, "unknown key \"" + key + "\" (allowed: " + names + ")");
    }
  }
}

inline const common::JsonValue& require_object(const common::JsonValue& v,
                                               const std::string& path) {
  if (!v.is_object()) {
    bad(path, std::string("expected an object, got ") + v.type_name());
  }
  return v;
}

/// Typed getters: absent key -> default; wrong type -> SpecError with the
/// full field path.
template <typename F>
auto get_field(const char* key, const std::string& path, F accessor) {
  try {
    return accessor();
  } catch (const common::JsonError& e) {
    throw SpecError(path + "." + key, e.what());
  }
}

inline double num_or(const common::JsonValue& obj, const char* key,
                     double def, const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  return get_field(key, path, [&] { return v->as_number(); });
}

inline int int_or(const common::JsonValue& obj, const char* key, int def,
                  const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  const std::int64_t n = get_field(key, path, [&] { return v->as_int(); });
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    bad(path + std::string(".") + key, "integer out of range");
  }
  return static_cast<int>(n);
}

inline bool bool_or(const common::JsonValue& obj, const char* key, bool def,
                    const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  return get_field(key, path, [&] { return v->as_bool(); });
}

inline std::string str_or(const common::JsonValue& obj, const char* key,
                          const std::string& def, const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  return get_field(key, path, [&] { return v->as_string(); });
}

/// Largest |duration| a spec may state (~31.7 years): int64 nanoseconds
/// with headroom for sums such as now + delay.
inline constexpr double kMaxSpecSeconds = 1e9;

/// The checked seconds -> SimTime conversion of every spec reader (fields
/// in ms pass ms * 1e-3). A value that is not finite or exceeds
/// kMaxSpecSeconds, where SimTime::from_sec's double -> int64 cast would
/// overflow, is a SpecError at `path`; in range the result is exactly
/// SimTime::from_sec(seconds). Sign rules stay with the caller; `what`
/// names the quantity in the message.
inline common::SimTime checked_seconds(double seconds, const std::string& path,
                                       const char* what = "time") {
  if (!(std::fabs(seconds) <= kMaxSpecSeconds)) {  // NaN fails too
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %g s is out of range (limit 1e9 s)",
                  what, seconds);
    bad(path, buf);
  }
  return common::SimTime::from_sec(seconds);
}

/// checked_seconds for a period that must advance time: a positive value
/// that rounds to 0 ns (e.g. 1 / a huge fps) is a SpecError too.
inline common::SimTime checked_period(double seconds,
                                      const std::string& path) {
  const common::SimTime t = checked_seconds(seconds, path, "period");
  if (t <= common::SimTime::zero()) {
    bad(path, "period rounds to 0 ns (must be >= 1 ns)");
  }
  return t;
}

inline std::uint64_t seed_or(const common::JsonValue& obj, const char* key,
                             std::uint64_t def, const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  const std::int64_t n = get_field(key, path, [&] { return v->as_int(); });
  // A negative seed would silently wrap to a huge uint64 — reject it like
  // any other bad value instead.
  if (n < 0) bad(path + std::string(".") + key, "seed must be >= 0");
  return static_cast<std::uint64_t>(n);
}

}  // namespace sgprs::workload::specdet
