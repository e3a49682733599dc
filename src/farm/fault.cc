#include "farm/fault.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/fsio.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace bh
{

namespace
{

const FaultKind kAllKinds[] = {
    FaultKind::kKillMidCell,   FaultKind::kTruncateWrite,
    FaultKind::kCorruptJson,   FaultKind::kStaleLease,
    FaultKind::kDoubleClaim,
};

bool
kindFromName(const std::string &name, FaultKind &out)
{
    for (FaultKind kind : kAllKinds) {
        if (name == faultKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

/** `text` as a whole decimal number: digits only, no overflow. */
bool
parseWhole(const std::string &text, std::uint64_t &out)
{
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return !text.empty() && errno != ERANGE &&
        text.find_first_not_of("0123456789") == std::string::npos;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kKillMidCell:
        return "kill";
      case FaultKind::kTruncateWrite:
        return "truncate";
      case FaultKind::kCorruptJson:
        return "corrupt";
      case FaultKind::kStaleLease:
        return "stale";
      case FaultKind::kDoubleClaim:
        return "dup";
    }
    return "?";
}

bool
FaultPlan::armed(FaultKind kind, std::uint64_t cell) const
{
    for (const Fault &f : faults)
        if (f.kind == kind && f.cell == cell)
            return true;
    return false;
}

std::string
FaultPlan::serialize() const
{
    std::string out;
    for (const Fault &f : faults) {
        if (!out.empty())
            out += ",";
        out += strfmt("%s@%llu", faultKindName(f.kind),
                      static_cast<unsigned long long>(f.cell));
    }
    return out;
}

bool
FaultPlan::parse(const std::string &spec, std::uint64_t cell_total,
                 FaultPlan &out, std::string &err)
{
    out.faults.clear();
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        std::string item = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? spec.size() : comma + 1;
        if (item.empty())
            continue;

        if (item.rfind("random:", 0) == 0) {
            // random:<seed>:<count> — deterministic expansion over the
            // grid; every kind is eligible for every cell.
            std::size_t colon = item.find(':', 7);  // past "random:"
            std::uint64_t seed = 0, count = 0;
            if (colon == std::string::npos ||
                !parseWhole(item.substr(7, colon - 7), seed) ||
                !parseWhole(item.substr(colon + 1), count) || count == 0 ||
                count > 4096) {
                err = "malformed random fault spec '" + item +
                      "' (want random:<seed>:<count>)";
                return false;
            }
            if (cell_total == 0) {
                err = "random fault spec needs a non-empty cell grid";
                return false;
            }
            Rng rng(seed);
            for (std::uint64_t i = 0; i < count; ++i) {
                Fault f;
                f.kind = kAllKinds[rng.below(std::size(kAllKinds))];
                f.cell = rng.below(cell_total);
                out.faults.push_back(f);
            }
            continue;
        }

        std::size_t at = item.find('@');
        if (at == std::string::npos || at == 0 || at + 1 >= item.size()) {
            err = "malformed fault '" + item + "' (want <kind>@<cell>)";
            return false;
        }
        Fault f;
        if (!kindFromName(item.substr(0, at), f.kind)) {
            err = "unknown fault kind '" + item.substr(0, at) +
                  "' (kill, truncate, corrupt, stale, dup)";
            return false;
        }
        const std::string cell_str = item.substr(at + 1);
        if (!parseWhole(cell_str, f.cell)) {
            err = "malformed fault cell '" + cell_str + "'";
            return false;
        }
        if (cell_total > 0 && f.cell >= cell_total) {
            err = strfmt("fault cell '%s' outside the %llu-cell grid",
                         cell_str.c_str(),
                         static_cast<unsigned long long>(cell_total));
            return false;
        }
        out.faults.push_back(f);
    }

    // Canonicalize: sorted, deduplicated — the random expansion may
    // collide, and serialize() should be order-independent.
    std::sort(out.faults.begin(), out.faults.end(),
              [](const Fault &a, const Fault &b) {
                  if (a.cell != b.cell)
                      return a.cell < b.cell;
                  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              });
    out.faults.erase(
        std::unique(out.faults.begin(), out.faults.end(),
                    [](const Fault &a, const Fault &b) {
                        return a.kind == b.kind && a.cell == b.cell;
                    }),
        out.faults.end());
    return true;
}

bool
consumeFault(const std::string &fault_dir, FaultKind kind,
             std::uint64_t cell)
{
    std::string marker = fault_dir + "/" +
        strfmt("%s_at_%llu.fired", faultKindName(kind),
               static_cast<unsigned long long>(cell));
    std::string err;
    return createExclusive(marker, "fired\n", err);
}

} // namespace bh
