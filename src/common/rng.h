/**
 * @file
 * Deterministic random number generation for reproducible experiments.
 *
 * Every synthetic trace in Carbon Explorer must be exactly reproducible
 * from a seed so that tests, examples and benchmark harnesses generate
 * identical data on every run and on every platform. We therefore avoid
 * std::default_random_engine / std::normal_distribution (whose outputs
 * are implementation-defined) and ship our own xoshiro256** generator
 * with Box-Muller normal sampling.
 */

#ifndef CARBONX_COMMON_RNG_H
#define CARBONX_COMMON_RNG_H

#include <array>
#include <cstdint>
#include <string>

namespace carbonx
{

/**
 * SplitMix64 generator. Primarily used to expand a single 64-bit seed
 * into the larger state of Xoshiro256. Also usable standalone for
 * hashing strings into seeds.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state_(seed) {}

    /** Next 64 random bits. */
    uint64_t next();

    /**
     * Hash an arbitrary string into a 64-bit seed (FNV-1a followed by a
     * SplitMix64 finalizer). Used to derive per-region substream seeds
     * from human-readable names.
     */
    static uint64_t hashString(const std::string &s);

  private:
    uint64_t state_;
};

/**
 * xoshiro256** PRNG (Blackman & Vigna). Fast, high-quality, with a
 * 2^256-1 period and support for cheap independent substreams via
 * long-jumps. All stochastic models in carbonx draw from this class.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded through SplitMix64. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Construct a named substream: seed mixed with a string hash. */
    Rng(uint64_t seed, const std::string &stream_name);

    /** Next 64 random bits. */
    uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0 */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal sample via Box-Muller (cached pair). */
    double normal();

    /** Normal sample with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Advance the stream exactly as @p k normal() calls would, so the
     * next normal() returns what the (k+1)-th would have. Draws the
     * same uniforms (the u1 redraw included) and honours the cached
     * second normal, but skips the Box-Muller math for every pair
     * that is consumed whole; only an odd tail computes one pair to
     * cache its sine. Lets a parallel pass position a copy of the
     * stream at any block start without replaying the normals.
     */
    void skipNormals(uint64_t k);

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p);

    /**
     * Weibull sample with shape @p k and scale @p lambda. Wind speeds
     * are classically Weibull distributed with k near 2.
     */
    double weibull(double k, double lambda);

    /** Exponential sample with the given rate. */
    double exponential(double rate);

  private:
    std::array<uint64_t, 4> s_;
    double cached_normal_;
    bool has_cached_normal_;
};

} // namespace carbonx

#endif // CARBONX_COMMON_RNG_H
