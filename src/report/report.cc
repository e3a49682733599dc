#include "report/report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"

namespace bh
{

std::uint64_t
fnv1a64(const std::string &data, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
cellDigest(const Json &payload)
{
    if (payload.type() == Json::Type::Object &&
        payload.find("stats")) {
        Json stripped = Json::object();
        for (const auto &kv : payload.objectItems())
            if (kv.first != "stats")
                stripped[kv.first] = kv.second;
        return hex64(fnv1a64(stripped.dump()));
    }
    return hex64(fnv1a64(payload.dump()));
}

std::string
hex64(std::uint64_t value)
{
    return strfmt("%016llx", static_cast<unsigned long long>(value));
}

namespace
{

const char *
typeName(Json::Type t)
{
    switch (t) {
        case Json::Type::Null: return "null";
        case Json::Type::Bool: return "bool";
        case Json::Type::Int: return "number";
        case Json::Type::Double: return "number";
        case Json::Type::String: return "string";
        case Json::Type::Array: return "array";
        case Json::Type::Object: return "object";
    }
    return "?";
}

bool
isNumber(const Json &j)
{
    return j.type() == Json::Type::Int || j.type() == Json::Type::Double;
}

struct DiffWalker
{
    const DiffOptions &opts;
    std::vector<std::string> out;
    bool truncated = false;

    bool
    full()
    {
        if (out.size() >= opts.maxDiffs) {
            if (!truncated) {
                truncated = true;
                out.push_back("... (diff list truncated)");
            }
            return true;
        }
        return false;
    }

    /**
     * True when `path` matches any ignore pattern. Patterns are dotted
     * paths; a "*" segment matches exactly one path segment, so
     * "cells.*.stats" skips the stats subtree of every cell.
     */
    bool
    ignored(const std::string &path) const
    {
        auto split = [](const std::string &s) {
            std::vector<std::string> segs;
            std::size_t start = 0;
            while (true) {
                std::size_t dot = s.find('.', start);
                segs.push_back(s.substr(start, dot - start));
                if (dot == std::string::npos)
                    break;
                start = dot + 1;
            }
            return segs;
        };
        std::vector<std::string> p = split(path);
        for (const auto &pattern : opts.ignorePaths) {
            std::vector<std::string> q = split(pattern);
            if (q.size() != p.size())
                continue;
            bool match = true;
            for (std::size_t i = 0; i < q.size(); ++i)
                if (q[i] != "*" && q[i] != p[i]) {
                    match = false;
                    break;
                }
            if (match)
                return true;
        }
        return false;
    }

    static std::string
    join(const std::string &path, const std::string &key)
    {
        return path.empty() ? key : path + "." + key;
    }

    void
    report(const std::string &path, const std::string &msg)
    {
        if (!full())
            out.push_back((path.empty() ? "(root)" : path) + ": " + msg);
    }

    void
    compare(const Json &a, const Json &b, const std::string &path)
    {
        if (full() || ignored(path))
            return;

        if (isNumber(a) && isNumber(b)) {
            double x = a.asDouble(), y = b.asDouble();
            if (x == y)
                return;
            double tol = opts.absTol +
                opts.relTol * std::max(std::fabs(x), std::fabs(y));
            if (std::fabs(x - y) <= tol)
                return;
            report(path, strfmt("%s vs %s",
                                Json::formatDouble(x).c_str(),
                                Json::formatDouble(y).c_str()));
            return;
        }
        if (a.type() != b.type()) {
            report(path, strfmt("type mismatch: %s vs %s",
                                typeName(a.type()), typeName(b.type())));
            return;
        }
        switch (a.type()) {
            case Json::Type::Null:
                return;
            case Json::Type::Bool:
                if (a.asBool() != b.asBool())
                    report(path, strfmt("%s vs %s",
                                        a.asBool() ? "true" : "false",
                                        b.asBool() ? "true" : "false"));
                return;
            case Json::Type::String:
                if (a.asString() != b.asString())
                    report(path, strfmt("\"%s\" vs \"%s\"",
                                        a.asString().c_str(),
                                        b.asString().c_str()));
                return;
            case Json::Type::Array: {
                if (a.size() != b.size())
                    report(path, strfmt("array length %zu vs %zu", a.size(),
                                        b.size()));
                std::size_t n = std::min(a.size(), b.size());
                for (std::size_t i = 0; i < n && !full(); ++i)
                    compare(a.at(i), b.at(i), join(path, std::to_string(i)));
                return;
            }
            case Json::Type::Object: {
                for (const auto &kv : a.objectItems()) {
                    if (full())
                        return;
                    std::string child = join(path, kv.first);
                    if (ignored(child))
                        continue;
                    const Json *other = b.find(kv.first);
                    if (!other)
                        report(child, "only in first document");
                    else
                        compare(kv.second, *other, child);
                }
                for (const auto &kv : b.objectItems()) {
                    if (full())
                        return;
                    std::string child = join(path, kv.first);
                    if (!a.find(kv.first) && !ignored(child))
                        report(child, "only in second document");
                }
                return;
            }
            default:
                return;     // numbers handled above
        }
    }
};

} // namespace

std::vector<std::string>
structuralDiff(const Json &a, const Json &b, const DiffOptions &opts)
{
    DiffWalker walker{opts, {}, false};
    walker.compare(a, b, "");
    return walker.out;
}

double
parseFlagNumber(const std::string &flag, const std::string &text,
                bool allowZero)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() ||
        std::isspace(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        !std::isfinite(v) || v < 0.0 || (v == 0.0 && !allowZero)) {
        std::fprintf(stderr, "bh_collect: %s wants a finite number %s 0, "
                     "got '%s'\n", flag.c_str(), allowZero ? ">=" : ">",
                     text.c_str());
        std::exit(2);
    }
    return v;
}

} // namespace bh
