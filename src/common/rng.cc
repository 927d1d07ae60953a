#include "rng.h"

#include <cmath>
#include <numbers>

#include "error.h"

namespace carbonx
{

uint64_t
SplitMix64::next()
{
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

uint64_t
SplitMix64::hashString(const std::string &s)
{
    // FNV-1a over the bytes, then one SplitMix64 finalization round to
    // spread low-entropy inputs across all 64 bits.
    uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    SplitMix64 finalize(h);
    return finalize.next();
}

namespace
{

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed) : cached_normal_(0.0), has_cached_normal_(false)
{
    SplitMix64 sm(seed);
    for (auto &word : s_)
        word = sm.next();
}

Rng::Rng(uint64_t seed, const std::string &stream_name)
    : Rng(seed ^ SplitMix64::hashString(stream_name))
{
}

uint64_t
Rng::nextU64()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    require(n > 0, "uniformInt requires n > 0");
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -n % n;
    for (;;) {
        uint64_t r = nextU64();
        if (r >= threshold)
            return r % n;
    }
}

double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box-Muller transform; u1 kept away from zero for the log.
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

void
Rng::skipNormals(uint64_t k)
{
    if (k > 0 && has_cached_normal_) {
        has_cached_normal_ = false;
        --k;
    }
    // Each whole Box-Muller pair consumes u1 (redrawn like normal()
    // does) and u2; both of its normals are skipped.
    for (; k >= 2; k -= 2) {
        while (uniform() <= 1e-300) {
        }
        nextU64();
    }
    if (k == 1)
        normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::weibull(double k, double lambda)
{
    require(k > 0 && lambda > 0, "weibull requires positive parameters");
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 1e-300);
    return lambda * std::pow(-std::log(u), 1.0 / k);
}

double
Rng::exponential(double rate)
{
    require(rate > 0, "exponential requires positive rate");
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 1e-300);
    return -std::log(u) / rate;
}

} // namespace carbonx
