#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/functional_mechanism.h"
#include "core/taylor.h"
#include "linalg/cholesky.h"

namespace fm::core {
namespace {

TEST(SensitivityTest, MatchesPaperFormulas) {
  // §4.2: Δ = 2(1 + 2d + d²) = 2(d+1)².
  EXPECT_DOUBLE_EQ(LinearRegressionSensitivity(1), 8.0);
  EXPECT_DOUBLE_EQ(LinearRegressionSensitivity(3), 32.0);
  EXPECT_DOUBLE_EQ(LinearRegressionSensitivity(13), 392.0);
  for (size_t d = 1; d <= 20; ++d) {
    const double dd = static_cast<double>(d);
    EXPECT_DOUBLE_EQ(LinearRegressionSensitivity(d),
                     2.0 * (dd + 1.0) * (dd + 1.0));
  }
  // §5.3: Δ = d²/4 + 3d.
  EXPECT_DOUBLE_EQ(LogisticRegressionSensitivity(2), 7.0);
  EXPECT_DOUBLE_EQ(LogisticRegressionSensitivity(13), 81.25);
}

TEST(SensitivityTest, LinearLemma1BoundHoldsEmpirically) {
  // Lemma 1: replacing one tuple changes the coefficient L1 mass by at most
  // Δ. Enumerate the per-tuple coefficient mass directly: y², 2yx(j),
  // x(j)x(l) over ordered pairs — per the paper's §4.2 derivation.
  Rng rng(111);
  const size_t d = 5;
  const double delta = LinearRegressionSensitivity(d);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (int trial = 0; trial < 500; ++trial) {
    linalg::Vector x(d);
    for (auto& v : x) v = rng.Uniform(0.0, scale);
    const double y = rng.Uniform(-1.0, 1.0);
    double mass = y * y;
    for (size_t j = 0; j < d; ++j) mass += std::fabs(2.0 * y * x[j]);
    for (size_t j = 0; j < d; ++j) {
      for (size_t l = 0; l < d; ++l) mass += std::fabs(x[j] * x[l]);
    }
    ASSERT_LE(2.0 * mass, delta + 1e-9);
  }
}

TEST(SensitivityTest, LogisticLemma1BoundHoldsEmpirically) {
  // §5.3 coefficient mass per tuple: ½Σ|x(j)| + ⅛Σ|x(j)x(l)| + |y|Σ|x(j)|.
  Rng rng(113);
  const size_t d = 6;
  const double delta = LogisticRegressionSensitivity(d);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (int trial = 0; trial < 500; ++trial) {
    linalg::Vector x(d);
    for (auto& v : x) v = rng.Uniform(0.0, scale);
    const double y = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    double mass = 0.0;
    for (size_t j = 0; j < d; ++j) mass += 0.5 * x[j] + y * x[j];
    for (size_t j = 0; j < d; ++j) {
      for (size_t l = 0; l < d; ++l) mass += 0.125 * x[j] * x[l];
    }
    ASSERT_LE(2.0 * mass, delta + 1e-9);
  }
}

opt::QuadraticModel SmallSpdObjective() {
  opt::QuadraticModel q;
  q.m = {{2.0, 0.3}, {0.3, 1.5}};
  q.alpha = {-1.0, 0.5};
  q.beta = 2.0;
  return q;
}

TEST(PerturbQuadraticTest, PreservesShapeAndSymmetry) {
  Rng rng(115);
  const auto noisy =
      FunctionalMechanism::PerturbQuadratic(SmallSpdObjective(), 8.0, 1.0, rng);
  ASSERT_TRUE(noisy.ok());
  EXPECT_EQ(noisy.ValueOrDie().dim(), 2u);
  EXPECT_TRUE(noisy.ValueOrDie().m.IsSymmetric(0.0));
  EXPECT_NE(noisy.ValueOrDie().beta, 2.0);
}

TEST(PerturbQuadraticTest, NoiseMagnitudeScalesWithDeltaOverEpsilon) {
  Rng rng(117);
  const int trials = 4000;
  double small_noise = 0.0, large_noise = 0.0;
  for (int t = 0; t < trials; ++t) {
    const auto tight = FunctionalMechanism::PerturbQuadratic(
        SmallSpdObjective(), 1.0, 10.0, rng);  // b = 0.1
    const auto loose = FunctionalMechanism::PerturbQuadratic(
        SmallSpdObjective(), 10.0, 1.0, rng);  // b = 10
    small_noise += std::fabs(tight.ValueOrDie().beta - 2.0);
    large_noise += std::fabs(loose.ValueOrDie().beta - 2.0);
  }
  EXPECT_NEAR(small_noise / trials, 0.1, 0.02);   // E|Lap(b)| = b
  EXPECT_NEAR(large_noise / trials, 10.0, 1.0);
}

TEST(PerturbQuadraticTest, RejectsBadParameters) {
  Rng rng(119);
  EXPECT_FALSE(FunctionalMechanism::PerturbQuadratic(SmallSpdObjective(), 8.0,
                                                     0.0, rng)
                   .ok());
  EXPECT_FALSE(FunctionalMechanism::PerturbQuadratic(SmallSpdObjective(), -1.0,
                                                     1.0, rng)
                   .ok());
}

TEST(SpectralTrimTest, NoTrimOnPositiveDefinite) {
  const auto q = SmallSpdObjective();
  size_t trimmed = 99;
  const auto w = FunctionalMechanism::SpectralTrimMinimize(q, &trimmed);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(trimmed, 0u);
  // Must agree with the closed-form minimizer.
  EXPECT_TRUE(linalg::AllClose(w.ValueOrDie(), q.Minimize().ValueOrDie(),
                               1e-10));
}

TEST(SpectralTrimTest, RemovesNegativeEigenvalueDirection) {
  // M = diag(1, −2): the ω₂ direction is unbounded; trimming must drop it
  // and minimize over ω₁ only: ω₁ = −α₁/2, ω₂ = 0.
  opt::QuadraticModel q;
  q.m = {{1.0, 0.0}, {0.0, -2.0}};
  q.alpha = {4.0, 3.0};
  q.beta = 0.0;
  size_t trimmed = 0;
  const auto w = FunctionalMechanism::SpectralTrimMinimize(q, &trimmed);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(trimmed, 1u);
  EXPECT_NEAR(w.ValueOrDie()[0], -2.0, 1e-10);
  EXPECT_NEAR(w.ValueOrDie()[1], 0.0, 1e-10);
}

TEST(SpectralTrimTest, AllNonPositiveReturnsZero) {
  opt::QuadraticModel q;
  q.m = {{-1.0, 0.0}, {0.0, -3.0}};
  q.alpha = {1.0, 1.0};
  q.beta = 0.0;
  size_t trimmed = 0;
  const auto w = FunctionalMechanism::SpectralTrimMinimize(q, &trimmed);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(trimmed, 2u);
  EXPECT_DOUBLE_EQ(w.ValueOrDie().Norm2(), 0.0);
}

TEST(FitQuadraticTest, HighEpsilonRecoversTrueMinimizer) {
  const auto q = SmallSpdObjective();
  const auto w_true = q.Minimize().ValueOrDie();
  FmOptions options;
  options.epsilon = 1e7;  // essentially no noise
  options.post_processing = PostProcessing::kNone;
  Rng rng(123);
  const auto fit = FunctionalMechanism::FitQuadratic(q, 8.0, options, rng);
  ASSERT_TRUE(fit.ok()) << fit.status();
  EXPECT_TRUE(linalg::AllClose(fit.ValueOrDie().omega, w_true, 1e-4));
  EXPECT_DOUBLE_EQ(fit.ValueOrDie().epsilon_spent, 1e7);
  EXPECT_EQ(fit.ValueOrDie().attempts, 1);
  EXPECT_FALSE(fit.ValueOrDie().used_spectral_trimming);
}

TEST(FitQuadraticTest, ReportCarriesScaleAndDelta) {
  FmOptions options;
  options.epsilon = 0.8;
  options.post_processing = PostProcessing::kRegularizeAndTrim;
  Rng rng(125);
  const auto fit =
      FunctionalMechanism::FitQuadratic(SmallSpdObjective(), 8.0, options, rng);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit.ValueOrDie().delta, 8.0);
  EXPECT_DOUBLE_EQ(fit.ValueOrDie().laplace_scale, 10.0);
  // §6.1: λ = 4·√2·Δ/ε.
  EXPECT_NEAR(fit.ValueOrDie().lambda, 4.0 * std::sqrt(2.0) * 10.0, 1e-9);
}

TEST(FitQuadraticTest, NoneFailsUnderHeavyNoise) {
  // With Δ/ε enormous the noisy M is essentially a random symmetric matrix:
  // P[PD] is tiny, so over a few draws kNone must fail at least once.
  FmOptions options;
  options.epsilon = 1e-3;
  options.post_processing = PostProcessing::kNone;
  Rng rng(127);
  int failures = 0;
  for (int t = 0; t < 20; ++t) {
    if (!FunctionalMechanism::FitQuadratic(SmallSpdObjective(), 8.0, options,
                                           rng)
             .ok()) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);
}

TEST(FitQuadraticTest, RegularizeAndTrimAlwaysSucceeds) {
  FmOptions options;
  options.epsilon = 1e-3;  // heavy noise
  options.post_processing = PostProcessing::kRegularizeAndTrim;
  Rng rng(129);
  for (int t = 0; t < 50; ++t) {
    const auto fit = FunctionalMechanism::FitQuadratic(SmallSpdObjective(),
                                                       8.0, options, rng);
    ASSERT_TRUE(fit.ok()) << fit.status();
    for (double v : fit.ValueOrDie().omega) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(FitQuadraticTest, ResampleReports2Epsilon) {
  FmOptions options;
  options.epsilon = 0.1;
  options.post_processing = PostProcessing::kResample;
  Rng rng(131);
  const auto fit =
      FunctionalMechanism::FitQuadratic(SmallSpdObjective(), 8.0, options, rng);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit.ValueOrDie().epsilon_spent, 0.2);  // Lemma 5
  EXPECT_GE(fit.ValueOrDie().attempts, 1);
}

TEST(FitQuadraticTest, RejectsBadParameters) {
  FmOptions options;
  options.epsilon = 0.0;
  Rng rng(133);
  EXPECT_FALSE(
      FunctionalMechanism::FitQuadratic(SmallSpdObjective(), 8.0, options, rng)
          .ok());
  options.epsilon = 0.8;
  EXPECT_FALSE(
      FunctionalMechanism::FitQuadratic(SmallSpdObjective(), 0.0, options, rng)
          .ok());
}

TEST(FitQuadraticTest, PaperFigure2Example) {
  // The §4.2 worked example: d = 1, fD(ω) = 2.06ω² − 2.34ω + 1.25,
  // Δ = 2(d+1)² = 8. With moderate noise the noisy optimum stays near
  // ω* = 117/206 on average.
  opt::QuadraticModel q;
  q.m = {{2.06}};
  q.alpha = {-2.34};
  q.beta = 1.25;
  FmOptions options;
  options.epsilon = 100.0;
  // Disable the §6.1 λ-shift: at this ε it is pure bias, and this test
  // checks the raw mechanism against the paper's numbers.
  options.post_processing = PostProcessing::kNone;
  Rng rng(135);
  double sum = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto fit = FunctionalMechanism::FitQuadratic(q, 8.0, options, rng);
    ASSERT_TRUE(fit.ok());
    sum += fit.ValueOrDie().omega[0];
  }
  EXPECT_NEAR(sum / trials, 117.0 / 206.0, 0.05);
}

TEST(PostProcessingTest, Names) {
  EXPECT_STREQ(PostProcessingToString(PostProcessing::kNone), "none");
  EXPECT_STREQ(PostProcessingToString(PostProcessing::kResample), "resample");
  EXPECT_STREQ(PostProcessingToString(PostProcessing::kRegularize),
               "regularize");
  EXPECT_STREQ(PostProcessingToString(PostProcessing::kRegularizeAndTrim),
               "regularize+trim");
  EXPECT_STREQ(PostProcessingToString(PostProcessing::kAdaptive), "adaptive");
}

TEST(FitQuadraticTest, AdaptiveSkipsLambdaWhenBounded) {
  // Mild noise keeps M* PD, so the adaptive default must not add λ bias.
  FmOptions options;
  options.epsilon = 50.0;
  options.post_processing = PostProcessing::kAdaptive;
  Rng rng(137);
  const auto fit =
      FunctionalMechanism::FitQuadratic(SmallSpdObjective(), 8.0, options, rng);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit.ValueOrDie().lambda, 0.0);
  EXPECT_FALSE(fit.ValueOrDie().used_spectral_trimming);
}

TEST(FitQuadraticTest, AdaptiveAlwaysSucceedsUnderHeavyNoise) {
  FmOptions options;
  options.epsilon = 1e-3;
  options.post_processing = PostProcessing::kAdaptive;
  Rng rng(139);
  bool saw_postprocessing = false;
  for (int t = 0; t < 30; ++t) {
    const auto fit = FunctionalMechanism::FitQuadratic(SmallSpdObjective(),
                                                       8.0, options, rng);
    ASSERT_TRUE(fit.ok()) << fit.status();
    for (double v : fit.ValueOrDie().omega) ASSERT_TRUE(std::isfinite(v));
    if (fit.ValueOrDie().lambda > 0.0 ||
        fit.ValueOrDie().used_spectral_trimming) {
      saw_postprocessing = true;
    }
  }
  // With Δ/ε = 8000 the noisy 2×2 matrix is indefinite most of the time.
  EXPECT_TRUE(saw_postprocessing);
}

}  // namespace
}  // namespace fm::core
