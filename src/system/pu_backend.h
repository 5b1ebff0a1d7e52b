#ifndef FLEET_SYSTEM_PU_BACKEND_H
#define FLEET_SYSTEM_PU_BACKEND_H

/**
 * @file
 * The one backend-name <-> PuBackend mapping (ISSUE 9 satellite):
 * every CLI surface — fig7, micro_rtl_engines, the serve/chaos/tenant
 * benches, the examples — parses `--backend` through parsePuBackend()
 * and prints through puBackendName(), instead of each carrying its own
 * copy of the string switch. Parsing is case-insensitive and ignores
 * '-'/'_' separators, so the historical spellings ("rtl-interp",
 * "rtl-jit") keep working alongside the canonical ones.
 */

#include <cctype>
#include <optional>
#include <string>
#include <string_view>

#include "system/fleet_system.h"

namespace fleet {
namespace system {

/** Canonical spellings, for usage strings. */
inline constexpr const char kPuBackendChoices[] =
    "fast|rtl|rtlinterp|rtljit";

inline std::optional<PuBackend>
parsePuBackend(std::string_view name)
{
    std::string n;
    for (char c : name)
        if (c != '-' && c != '_')
            n += char(std::tolower(static_cast<unsigned char>(c)));
    if (n == "fast")
        return PuBackend::Fast;
    if (n == "rtl" || n == "rtlbatch" || n == "batch")
        return PuBackend::Rtl;
    if (n == "rtlinterp" || n == "interp")
        return PuBackend::RtlInterp;
    if (n == "rtljit" || n == "jit")
        return PuBackend::RtlJit;
    return std::nullopt;
}

inline const char *
puBackendName(PuBackend b)
{
    switch (b) {
      case PuBackend::Fast:      return "fast";
      case PuBackend::Rtl:       return "rtl";
      case PuBackend::RtlInterp: return "rtlinterp";
      case PuBackend::RtlJit:    return "rtljit";
    }
    return "unknown";
}

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_PU_BACKEND_H
