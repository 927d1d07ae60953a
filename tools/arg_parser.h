/**
 * @file
 * Minimal command-line flag parser for the carbonx CLI. Supports
 * --flag value and --flag=value forms, typed lookups with defaults,
 * a check against the flags a command declares, and collects
 * positional arguments.
 */

#ifndef CARBONX_TOOLS_ARG_PARSER_H
#define CARBONX_TOOLS_ARG_PARSER_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace carbonx::tools
{

/** Parsed command line: positionals plus --key value flags. */
class ArgParser
{
  public:
    ArgParser(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                const auto eq = arg.find('=');
                if (eq != std::string::npos) {
                    flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
                } else if (i + 1 < argc &&
                           std::string(argv[i + 1]).rfind("--", 0) !=
                               0) {
                    flags_[arg.substr(2)] = argv[++i];
                } else {
                    flags_[arg.substr(2)] = "true";
                }
            } else {
                positionals_.push_back(std::move(arg));
            }
        }
    }

    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    bool has(const std::string &key) const
    {
        return flags_.count(key) > 0;
    }

    std::string
    getString(const std::string &key, const std::string &fallback) const
    {
        const auto it = flags_.find(key);
        return it != flags_.end() ? it->second : fallback;
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        const auto it = flags_.find(key);
        if (it == flags_.end())
            return fallback;
        try {
            return std::stod(it->second);
        } catch (const std::exception &) {
            throw UserError("flag --" + key +
                            " expects a number, got '" + it->second +
                            "'");
        }
    }

    /**
     * Integer flag; rejects values with a fractional part or trailing
     * garbage, which getDouble-plus-cast would silently accept.
     */
    long long
    getInt(const std::string &key, long long fallback) const
    {
        const auto it = flags_.find(key);
        if (it == flags_.end())
            return fallback;
        try {
            size_t used = 0;
            const long long value = std::stoll(it->second, &used);
            if (used != it->second.size())
                throw std::invalid_argument(it->second);
            return value;
        } catch (const std::exception &) {
            throw UserError("flag --" + key +
                            " expects an integer, got '" + it->second +
                            "'");
        }
    }

    /**
     * Unsigned 64-bit flag (e.g. RNG seeds): preserves every bit a
     * user passes, unlike a double round-trip, which loses precision
     * past 2^53.
     */
    uint64_t
    getUint64(const std::string &key, uint64_t fallback) const
    {
        const auto it = flags_.find(key);
        if (it == flags_.end())
            return fallback;
        try {
            size_t used = 0;
            if (!it->second.empty() && it->second.front() == '-')
                throw std::invalid_argument(it->second);
            const unsigned long long value =
                std::stoull(it->second, &used);
            if (used != it->second.size())
                throw std::invalid_argument(it->second);
            return static_cast<uint64_t>(value);
        } catch (const std::exception &) {
            throw UserError("flag --" + key +
                            " expects an unsigned integer, got '" +
                            it->second + "'");
        }
    }

    bool
    getBool(const std::string &key, bool fallback = false) const
    {
        const auto it = flags_.find(key);
        if (it == flags_.end())
            return fallback;
        return it->second != "false" && it->second != "0";
    }

    /**
     * Throw a UserError naming the first given flag (in name order)
     * that @p known does not list. Without this check a flag the
     * command never reads, a typo or `--help`, is silently ignored
     * and the command runs anyway.
     */
    void
    requireKnownFlags(const std::vector<std::string_view> &known) const
    {
        for (const auto &flag : flags_) {
            if (std::find(known.begin(), known.end(), flag.first) ==
                known.end())
                throw UserError("unknown flag --" + flag.first);
        }
    }

  private:
    std::vector<std::string> positionals_;
    std::map<std::string, std::string> flags_;
};

} // namespace carbonx::tools

#endif // CARBONX_TOOLS_ARG_PARSER_H
