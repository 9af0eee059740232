// Unit tests for the utility layer: errors, RNG, Array1D, bitset,
// statistics, tables, options.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "util/array1d.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/pod_vector.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mgg {
namespace {

TEST(Error, CheckMacroThrowsWithStatus) {
  try {
    MGG_CHECK(false, Status::kOutOfMemory, "boom");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kOutOfMemory);
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Error, FaultRecoveryStatusCodesHaveNamesAndPropagate) {
  EXPECT_EQ(to_string(Status::kTimedOut), "timed_out");
  EXPECT_EQ(to_string(Status::kUnavailable), "unavailable");
  try {
    throw Error(Status::kTimedOut, "watchdog deadline");
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kTimedOut);
    EXPECT_NE(std::string(e.what()).find("watchdog deadline"),
              std::string::npos);
  }
  try {
    throw Error(Status::kUnavailable, "device lost");
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kUnavailable);
  }
}

TEST(Error, RequireAndAssertCategories) {
  EXPECT_THROW(MGG_REQUIRE(false, "bad arg"), Error);
  EXPECT_THROW(MGG_ASSERT(false, "bug"), Error);
  try {
    MGG_REQUIRE(false, "x");
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kInvalidArgument);
  }
}

TEST(Rng, DeterministicPerSeed) {
  util::Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  bool differs = false;
  util::Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.next_u64() != c.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundedValuesInRange) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformityRoughly) {
  util::Rng rng(11);
  int buckets[10] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.next_below(10)];
  for (const int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);
  }
}

TEST(Array1D, AllocateReleaseLifecycle) {
  util::Array1D<int> a("test");
  EXPECT_TRUE(a.empty());
  a.allocate(100);
  EXPECT_EQ(a.size(), 100u);
  a.fill(7);
  EXPECT_EQ(a[0], 7);
  EXPECT_EQ(a[99], 7);
  a.release();
  EXPECT_TRUE(a.empty());
  a.release();  // double release is safe
}

TEST(Array1D, EnsureSizeGrowsExactlyWhenNeeded) {
  util::Array1D<int> a("test");
  a.allocate(10);
  EXPECT_FALSE(a.ensure_size(5));   // fits: no realloc
  EXPECT_FALSE(a.ensure_size(10));  // fits exactly
  EXPECT_EQ(a.realloc_count(), 0u);
  EXPECT_TRUE(a.ensure_size(20));
  EXPECT_EQ(a.capacity(), 20u);
  EXPECT_EQ(a.realloc_count(), 1u);
}

TEST(Array1D, EnsureSizeKeepsContents) {
  util::Array1D<int> a("test");
  a.allocate(4);
  for (int i = 0; i < 4; ++i) a[i] = i * i;
  a.ensure_size(100, /*keep_contents=*/true);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a[i], i * i);
}

TEST(Array1D, ZeroSizeEnsureOnEmptyArrayIsANoop) {
  // The zero-size-encode edge: an empty varint payload must be able to
  // size its buffers without allocating or faulting.
  util::Array1D<int> a("test");
  EXPECT_FALSE(a.ensure_size(0));
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.realloc_count(), 0u);
}

TEST(Array1D, EnsureSizeAfterReleaseReallocatesFromScratch) {
  // Capacity floor after release(): regrowing a released array (the
  // grow-and-retry OOM path does exactly this) must start clean, not
  // trip over stale size/capacity.
  util::Array1D<int> a("test");
  a.allocate(16);
  a.fill(3);
  a.release();
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_TRUE(a.ensure_size(4, /*keep_contents=*/true));  // nothing to keep
  EXPECT_EQ(a.capacity(), 4u);
  EXPECT_EQ(a.size(), 4u);
}

TEST(Array1D, EnsureSizeKeepsOnlyLivePrefixAcrossGrowth) {
  // keep_contents copies size_ elements, not capacity_: after a
  // shrink-by-set_size, growth must preserve exactly the live prefix.
  util::Array1D<int> a("test");
  a.allocate(8);
  for (int i = 0; i < 8; ++i) a[i] = 10 + i;
  a.set_size(3);
  a.ensure_size(64, /*keep_contents=*/true);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a[i], 10 + i);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(a.capacity(), 64u);
}

TEST(Array1D, ByteSizeOverflowThrowsInsteadOfWrapping) {
  // count * sizeof(T) used to wrap: an absurd element count (e.g. an
  // overflowed upstream size computation) would allocate a tiny buffer
  // and corrupt the heap on first write. Now it is a clean typed OOM.
  util::Array1D<std::uint64_t> a("test");
  const std::size_t huge = static_cast<std::size_t>(-1) / 2;
  try {
    // GCC 12 folds `huge` into the allocation that check_count() throws
    // before and flags the oversized request; that request is the point.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Walloc-size-larger-than="
    a.ensure_size(huge);
#pragma GCC diagnostic pop
    FAIL() << "expected kOutOfMemory";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kOutOfMemory);
  }
  EXPECT_EQ(a.capacity(), 0u);
  try {
    a.allocate(huge);
    FAIL() << "expected kOutOfMemory";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kOutOfMemory);
  }
  // The array stays usable after the rejected requests.
  a.allocate(4);
  a.fill(1);
  EXPECT_EQ(a[3], 1u);
}

TEST(PodVector, ResizeGrowthPreservesPrefixAndCapacityAcrossClear) {
  // The varint encoder's push_back/resize pattern: clear() must keep
  // capacity (pooled messages rely on it), growth must preserve the
  // written prefix, and a zero-size resize must be legal.
  util::PodVector<std::uint8_t> v;
  v.resize(0);  // zero-size encode
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 300; ++i) v.push_back(static_cast<std::uint8_t>(i));
  const std::size_t cap = v.capacity();
  EXPECT_GE(cap, 300u);
  v.resize(512);  // partial-word tail growth past the varint bytes
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(v[static_cast<std::size_t>(i)], static_cast<std::uint8_t>(i));
  }
  v.clear();
  EXPECT_GE(v.capacity(), 512u);  // warm capacity retained for reuse
}

TEST(Array1D, MoveTransfersOwnership) {
  util::Array1D<int> a("src");
  a.allocate(8);
  a.fill(3);
  util::Array1D<int> b = std::move(a);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b[5], 3);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(AtomicBitset, SetTestClear) {
  util::AtomicBitset bits(200);
  EXPECT_FALSE(bits.test(130));
  bits.set(130);
  EXPECT_TRUE(bits.test(130));
  bits.clear_bit(130);
  EXPECT_FALSE(bits.test(130));
}

TEST(AtomicBitset, TestAndSetClaimsOnce) {
  util::AtomicBitset bits(64);
  EXPECT_TRUE(bits.test_and_set(10));
  EXPECT_FALSE(bits.test_and_set(10));
  EXPECT_EQ(bits.count(), 1u);
}

TEST(AtomicBitset, CountAcrossWords) {
  util::AtomicBitset bits(300);
  for (std::size_t i = 0; i < 300; i += 3) bits.set(i);
  EXPECT_EQ(bits.count(), 100u);
  bits.clear();
  EXPECT_EQ(bits.count(), 0u);
}

TEST(Stats, GeometricMean) {
  const double values[] = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(util::geometric_mean(values), 2.0);
  const double one[] = {5.0};
  EXPECT_DOUBLE_EQ(util::geometric_mean(one), 5.0);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const double bad[] = {1.0, 0.0};
  EXPECT_THROW(util::geometric_mean(bad), Error);
  EXPECT_THROW(util::geometric_mean({}), Error);
}

TEST(Stats, MeanAndHarmonic) {
  const double values[] = {2.0, 6.0};
  EXPECT_DOUBLE_EQ(util::mean(values), 4.0);
  EXPECT_DOUBLE_EQ(util::harmonic_mean(values), 3.0);
}

TEST(Table, RowWidthValidated) {
  util::Table t("x");
  t.set_columns({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
  t.add_row({"1", 2.0});
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, CsvRoundTrip) {
  util::Table t("title");
  t.set_columns({"name", "value"}, 2);
  t.add_row({std::string("x"), 1.5});
  const std::string path = "/tmp/mgg_table_test.csv";
  t.write_csv(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  std::string contents;
  while (std::fgets(buf, sizeof(buf), f)) contents += buf;
  std::fclose(f);
  EXPECT_NE(contents.find("# title"), std::string::npos);
  EXPECT_NE(contents.find("name,value"), std::string::npos);
  EXPECT_NE(contents.find("x,1.50"), std::string::npos);
}

TEST(Options, ParsesAllForms) {
  // Note: a bare flag consumes a following non-flag token as its
  // value, so `--flag` here is followed by another option.
  const char* argv[] = {"prog",   "--alpha=3", "--beta", "4",
                        "pos1",   "--flag",    "--rate", "0.5"};
  util::Options o(8, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("alpha", 0), 3);
  EXPECT_EQ(o.get_int("beta", 0), 4);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(o.get_double("rate", 0), 0.5);
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos1");
  EXPECT_EQ(o.get_string("missing", "dflt"), "dflt");
}

TEST(Options, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  util::Options o(2, const_cast<char**>(argv));
  EXPECT_THROW(o.get_int("n", 0), Error);

  // Out-of-range and non-finite values are rejected as invalid
  // arguments naming the option, not clamped or passed through.
  const char* range_argv[] = {"prog",     "--seed=99999999999999999999",
                              "--gpus=-99999999999999999999",
                              "--huge=1e999", "--inf=inf", "--nan=nan"};
  util::Options r(6, const_cast<char**>(range_argv));
  const auto expect_rejected = [](const auto& get, const std::string& key) {
    try {
      get();
      ADD_FAILURE() << "--" << key << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::kInvalidArgument) << e.what();
      EXPECT_NE(std::string(e.what()).find("--" + key), std::string::npos)
          << e.what();
    }
  };
  for (const std::string key : {"seed", "gpus"}) {
    expect_rejected([&] { return r.get_int(key, 0); }, key);
  }
  for (const std::string key : {"huge", "inf", "nan"}) {
    expect_rejected([&] { return r.get_double(key, 0); }, key);
  }

  // A number is the whole token: no leading whitespace, no '+' and no
  // hex float.
  const char* token_argv[] = {"prog", "--space= 4", "--plus=+4",
                              "--hex=0x1p3"};
  util::Options t(4, const_cast<char**>(token_argv));
  for (const std::string key : {"space", "plus"}) {
    expect_rejected([&] { return t.get_int(key, 0); }, key);
    expect_rejected([&] { return t.get_double(key, 0); }, key);
  }
  expect_rejected([&] { return t.get_double("hex", 0); }, "hex");
}

TEST(Options, ParseSurvivesSeededMutations) {
  // Mutation fuzzing of Options: argv built from `--k=v`, `--k v`, bare
  // flags and positionals, then damaged by character flips, insertions,
  // deletions and truncations and by dropped or duplicated tokens. Every
  // getter on every parsed key must return or throw
  // Error(kInvalidArgument), and a number is accepted exactly when
  // std::from_chars converts the whole value (to a finite double, for
  // get_double), to the same value.
  const std::vector<std::string> keys = {"gpus", "seed", "rate", "x", "a-b"};
  const std::vector<std::string> values = {
      "4",    "-17",  "0",     "0.5", "1e3",  "-2.5e-3", "1.",   ".5",
      "e5",   "-",    "",      "inf", "nan",  "1e999",   "true", "off",
      "metis", "+4",  " 4",    "4 ",  "0x1p3", "9223372036854775807",
      "99999999999999999999"};
  constexpr char kAlphabet[] = "-=+ .0123456789eExXpPinfatu";
  constexpr std::uint64_t kSeeds = 1000;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(seed);
    std::vector<std::string> args = {"prog"};
    for (std::uint64_t k = 1 + rng.next_below(6); k > 0; --k) {
      const std::string& key = keys[rng.next_below(keys.size())];
      const std::string& value = values[rng.next_below(values.size())];
      switch (rng.next_below(4)) {
        case 0:
          args.push_back("--" + key + "=" + value);
          break;
        case 1:
          args.push_back("--" + key);
          args.push_back(value);
          break;
        case 2:
          args.push_back("--" + key);
          break;
        default:
          args.push_back(value);
          break;
      }
    }
    const auto random_char = [&] {
      return rng.next_bool(0.9)
                 ? kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)]
                 : static_cast<char>(1 + rng.next_below(255));
    };
    for (std::uint64_t m = 1 + rng.next_below(3); m > 0; --m) {
      if (args.size() < 2) break;
      const std::size_t i = 1 + rng.next_below(args.size() - 1);
      std::string& token = args[i];
      switch (rng.next_below(6)) {
        case 0:  // replace one character
          if (!token.empty()) token[rng.next_below(token.size())] = random_char();
          break;
        case 1:  // insert one character
          token.insert(token.begin() + static_cast<std::ptrdiff_t>(
                                           rng.next_below(token.size() + 1)),
                       random_char());
          break;
        case 2:  // delete one character
          if (!token.empty()) {
            token.erase(rng.next_below(token.size()), 1);
          }
          break;
        case 3:  // truncate
          token.resize(rng.next_below(token.size() + 1));
          break;
        case 4:  // drop the token
          args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        default:  // duplicate the token somewhere else
          args.insert(args.begin() + static_cast<std::ptrdiff_t>(
                                         1 + rng.next_below(args.size())),
                      std::string(token));
          break;
      }
    }

    std::string where = "seed " + std::to_string(seed) + ", argv [";
    for (std::size_t i = 1; i < args.size(); ++i) {
      where += (i > 1 ? ", '" : "'") + args[i] + "'";
    }
    where += "]";
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());

    try {
      util::Options o(static_cast<int>(argv.size()), argv.data());
      bool any_key = false;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i].rfind("--", 0) != 0) continue;
        const std::string key = args[i].substr(2, args[i].find('=') - 2);
        if (!o.has(key)) continue;
        any_key = true;
        const std::string text = o.get_string(key, "");
        const char* const last = text.data() + text.size();
        const auto expect_rejection = [&](const Error& e, const char* getter) {
          EXPECT_EQ(e.status(), Status::kInvalidArgument)
              << where << ", " << getter << "(" << key << "): " << e.what();
        };

        long long want_int = 0;
        const auto int_parse = std::from_chars(text.data(), last, want_int, 10);
        const bool int_ok = int_parse.ec == std::errc{} && int_parse.ptr == last;
        try {
          const long long got = o.get_int(key, 0);
          EXPECT_TRUE(int_ok) << where << ": get_int accepted '" << text << "'";
          if (int_ok) {
            EXPECT_EQ(got, want_int) << where;
          }
        } catch (const Error& e) {
          expect_rejection(e, "get_int");
          EXPECT_FALSE(int_ok) << where << ": get_int rejected '" << text << "'";
        }

        double want_double = 0;
        const auto double_parse = std::from_chars(
            text.data(), last, want_double, std::chars_format::general);
        const bool double_ok = double_parse.ec == std::errc{} &&
                               double_parse.ptr == last &&
                               std::isfinite(want_double);
        try {
          const double got = o.get_double(key, 0);
          EXPECT_TRUE(double_ok)
              << where << ": get_double accepted '" << text << "'";
          if (double_ok) {
            EXPECT_EQ(got, want_double) << where;
          }
        } catch (const Error& e) {
          expect_rejection(e, "get_double");
          EXPECT_FALSE(double_ok)
              << where << ": get_double rejected '" << text << "'";
        }

        try {
          o.get_bool(key, false);
        } catch (const Error& e) {
          expect_rejection(e, "get_bool");
        }
      }
      try {
        o.check_unknown({});
        EXPECT_FALSE(any_key) << where << ": check_unknown({}) passed";
      } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::kInvalidArgument) << where;
        EXPECT_TRUE(any_key) << where << ": " << e.what();
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << ": untyped exception: " << e.what();
    }
  }
}

TEST(Options, CheckUnknownAcceptsKnownKeys) {
  const char* argv[] = {"prog", "--gpus=4", "--seed", "9", "positional"};
  util::Options o(5, const_cast<char**>(argv));
  EXPECT_NO_THROW(o.check_unknown({"gpus", "seed", "csv"}));
}

TEST(Options, CheckUnknownRejectsMisspelledKey) {
  // The motivating bug: --parition=metis silently ran the default
  // partitioner. It must fail loudly and name the bad key.
  const char* argv[] = {"prog", "--parition=metis", "--gpus=4"};
  util::Options o(3, const_cast<char**>(argv));
  try {
    o.check_unknown({"partition", "gpus"});
    FAIL() << "check_unknown accepted a misspelled key";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--parition"), std::string::npos)
        << e.what();
  }
}

TEST(Options, CheckUnknownListsEveryUnknownKey) {
  const char* argv[] = {"prog", "--bad1=1", "--good=2", "--bad2", "3"};
  util::Options o(5, const_cast<char**>(argv));
  try {
    o.check_unknown({"good"});
    FAIL() << "check_unknown accepted unknown keys";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--bad1"), std::string::npos) << what;
    EXPECT_NE(what.find("--bad2"), std::string::npos) << what;
    EXPECT_EQ(what.find("--good"), std::string::npos) << what;
  }
}

TEST(SplitMix, KnownAvalanche) {
  // Different inputs produce well-spread outputs.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(util::splitmix64(i));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

}  // namespace
}  // namespace mgg
