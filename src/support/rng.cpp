#include "support/rng.hpp"

#include <bit>

namespace rts::support {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  // Seed the four words via SplitMix64, per the xoshiro authors' advice.
  for (auto& word : s_) word = splitmix64(seed);
  // All-zero state is invalid; SplitMix64 makes it astronomically unlikely,
  // but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t PrngSource::draw(std::uint64_t arity) {
  RTS_ASSERT(arity >= 1);
  if (arity == 1) return 0;
  // arity >= 2 here; the bit trick stays inline where std::has_single_bit
  // would call libgcc's __popcountdi2 on a build without -mpopcnt.
  if ((arity & (arity - 1)) == 0) return rng_.next() & (arity - 1);
  // Rejection sampling for unbiased draws from non-power-of-two ranges.
  if (arity != cached_arity_) {
    cached_arity_ = arity;
    cached_limit_ = UINT64_MAX - UINT64_MAX % arity;
  }
  std::uint64_t x = rng_.next();
  while (x >= cached_limit_) x = rng_.next();
  return x % arity;
}

std::uint64_t PrngSource::geometric_trunc(std::uint64_t ell) {
  RTS_ASSERT(ell >= 1);
  // Count of leading successes of fair coin flips: Pr(x = i) = 2^-i, then
  // truncate at ell (which absorbs the tail mass 2^-(ell-1) ... exactly the
  // paper's distribution: Pr(x=i)=1/2^i for i < ell, Pr(x=ell)=1/2^(ell-1)).
  std::uint64_t x = 1;
  while (x < ell && (rng_.next() & 1) == 0) ++x;
  return x;
}

std::uint64_t TapeSource::record(std::uint64_t arity) {
  RTS_ASSERT(arity >= 1);
  if (pos_ < tape_.size()) {
    Decision d = tape_[pos_++];
    RTS_ASSERT_MSG(d.arity == arity,
                   "model-check replay divergence: decision arity changed");
    history_.push_back(d);
    return d.value;
  }
  history_.push_back(Decision{arity, 0});
  ++pos_;
  return 0;
}

std::uint64_t TapeSource::draw(std::uint64_t arity) { return record(arity); }

std::uint64_t TapeSource::geometric_trunc(std::uint64_t ell) {
  // One decision point with arity ell; outcome i in [1, ell].  The model
  // checker explores all outcomes regardless of their probability.
  return record(ell) + 1;
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) {
  std::uint64_t s = master ^ (0x6a09e667f3bcc909ULL + stream * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

}  // namespace rts::support
