/**
 * @file
 * Deterministic random source.
 *
 * Every stochastic element of the model (bit-error injection, random
 * workload addresses, tR variation) draws from an explicitly seeded
 * Rng so runs are reproducible; there is no global generator.
 */

#ifndef BABOL_SIM_RANDOM_HH
#define BABOL_SIM_RANDOM_HH

#include <cstdint>
#include <mutex>
#include <random>

namespace babol {

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedULL) : gen_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniform(std::uint64_t lo, std::uint64_t hi)
    {
        std::uniform_int_distribution<std::uint64_t> d(lo, hi);
        return d(gen_);
    }

    /** Uniform double in [0, 1). */
    double
    uniform01()
    {
        std::uniform_real_distribution<double> d(0.0, 1.0);
        return d(gen_);
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform01() < p; }

    /** Binomially distributed count of successes in n trials of prob p. */
    std::uint64_t
    binomial(std::uint64_t n, double p)
    {
        if (p <= 0.0 || n == 0)
            return 0;
        if (p >= 1.0)
            return n;
        // libstdc++'s binomial sampler calls lgamma(), which writes the
        // C library's global signgam: fleet members drawing on several
        // threads would race on it, so draws are serialized.
        static std::mutex lgammaMu;
        std::lock_guard<std::mutex> lk(lgammaMu);
        std::binomial_distribution<std::uint64_t> d(n, p);
        return d(gen_);
    }

    /** Normally distributed sample. */
    double
    normal(double mean, double stddev)
    {
        std::normal_distribution<double> d(mean, stddev);
        return d(gen_);
    }

    std::mt19937_64 &engine() { return gen_; }

  private:
    std::mt19937_64 gen_;
};

} // namespace babol

#endif // BABOL_SIM_RANDOM_HH
