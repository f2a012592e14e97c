#include "core/functional_mechanism.h"

#include <cmath>

#include "common/logging.h"
#include "dp/budget.h"
#include "dp/laplace_mechanism.h"
#include "linalg/eigen_sym.h"

namespace fm::core {

const char* PostProcessingToString(PostProcessing p) {
  switch (p) {
    case PostProcessing::kNone:
      return "none";
    case PostProcessing::kResample:
      return "resample";
    case PostProcessing::kRegularize:
      return "regularize";
    case PostProcessing::kRegularizeAndTrim:
      return "regularize+trim";
    case PostProcessing::kAdaptive:
      return "adaptive";
  }
  return "?";
}

Result<opt::QuadraticModel> FunctionalMechanism::PerturbQuadratic(
    const opt::QuadraticModel& objective, double delta, double epsilon,
    Rng& rng) {
  if (objective.m.rows() != objective.dim() ||
      objective.m.cols() != objective.dim()) {
    return Status::InvalidArgument("objective matrix/vector shape mismatch");
  }
  FM_ASSIGN_OR_RETURN(dp::LaplaceMechanism mech,
                      dp::LaplaceMechanism::Create(epsilon, delta));
  opt::QuadraticModel noisy;
  noisy.m = mech.PerturbSymmetric(objective.m, rng);
  noisy.alpha = mech.Perturb(objective.alpha, rng);
  noisy.beta = mech.Perturb(objective.beta, rng);
  return noisy;
}

Result<linalg::Vector> FunctionalMechanism::SpectralTrimMinimize(
    const opt::QuadraticModel& objective, size_t* trimmed_count) {
  FM_ASSIGN_OR_RETURN(linalg::SymmetricEigen eig,
                      linalg::EigenSym(objective.m));
  const size_t d = objective.dim();

  // Minimize g(V) = Σ_k λ_k V_k² + Σ_k (q_kᵀα) V_k over the retained
  // (positive-eigenvalue) components: V_k = −(q_kᵀα) / (2 λ_k); the
  // minimum-norm pre-image of Q′ω = V is ω = Q′ᵀ V (rows of Q orthonormal).
  linalg::Vector omega(d);
  size_t trimmed = 0;
  for (size_t k = 0; k < d; ++k) {
    const double lambda = eig.eigenvalues[k];
    if (!(lambda > 0.0)) {
      ++trimmed;
      continue;
    }
    const linalg::Vector qk = eig.eigenvectors.RowVector(k);
    const double vk = -Dot(qk, objective.alpha) / (2.0 * lambda);
    omega.Axpy(vk, qk);
  }
  if (trimmed_count != nullptr) *trimmed_count = trimmed;
  return omega;
}

Result<FmFitReport> FunctionalMechanism::FitQuadratic(
    const opt::QuadraticModel& objective, double delta,
    const FmOptions& options, Rng& rng) {
  FM_RETURN_NOT_OK(dp::ValidateEpsilon(options.epsilon));
  if (!(delta > 0.0) || !std::isfinite(delta)) {
    return Status::InvalidArgument("delta must be finite and positive");
  }

  FmFitReport report;
  report.delta = delta;
  report.laplace_scale = delta / options.epsilon;
  // Lemma 5: the repeat-until-bounded algorithm is (2ε)-DP as a whole, even
  // when the first draw is accepted — the acceptance test itself conditions
  // on the data.
  report.epsilon_spent =
      options.post_processing == PostProcessing::kResample
          ? 2.0 * options.epsilon
          : options.epsilon;

  // §6.1: λ = multiplier × (stddev of Lap(Δ/ε)) = multiplier·√2·Δ/ε. The
  // scale depends only on Δ and ε, never on the data, so adding it costs no
  // privacy.
  const double noise_stddev = report.laplace_scale * std::sqrt(2.0);
  const bool regularize =
      options.post_processing == PostProcessing::kRegularize ||
      options.post_processing == PostProcessing::kRegularizeAndTrim;
  const double lambda =
      regularize ? options.regularization_multiplier * noise_stddev : 0.0;

  const int max_attempts =
      options.post_processing == PostProcessing::kResample
          ? options.max_resample_attempts
          : 1;

  if (options.post_processing == PostProcessing::kAdaptive) {
    report.attempts = 1;
    FM_ASSIGN_OR_RETURN(
        opt::QuadraticModel noisy,
        PerturbQuadratic(objective, delta, options.epsilon, rng));
    FM_ASSIGN_OR_RETURN(linalg::SymmetricEigen eig,
                        linalg::EigenSym(noisy.m));
    // Eigenvalues at or below the per-coefficient noise stddev carry no
    // usable curvature signal; trimming them is post-processing of the
    // already-private (M*, α*, β*), so privacy is unaffected.
    const double floor = noise_stddev;
    const size_t d = objective.dim();
    linalg::Vector omega(d);
    size_t trimmed = 0;
    for (size_t k = 0; k < d; ++k) {
      const double lambda_k = eig.eigenvalues[k];
      if (lambda_k <= floor) {
        ++trimmed;
        continue;
      }
      const linalg::Vector qk = eig.eigenvectors.RowVector(k);
      omega.Axpy(-Dot(qk, noisy.alpha) / (2.0 * lambda_k), qk);
    }
    report.omega = std::move(omega);
    report.trimmed_eigenvalues = trimmed;
    report.used_spectral_trimming = trimmed > 0;
    return report;
  }

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    report.attempts = attempt;
    FM_ASSIGN_OR_RETURN(
        opt::QuadraticModel noisy,
        PerturbQuadratic(objective, delta, options.epsilon, rng));
    if (lambda > 0.0) {
      noisy.m.AddToDiagonal(lambda);
      report.lambda = lambda;
    }

    Result<linalg::Vector> direct = noisy.Minimize();
    if (direct.ok()) {
      report.omega = std::move(direct).ValueOrDie();
      return report;
    }

    switch (options.post_processing) {
      case PostProcessing::kNone:
        return Status::NumericalError(
            "noisy objective is unbounded (M* not positive definite); "
            "select a §6 post-processing strategy");
      case PostProcessing::kRegularize:
        return Status::NumericalError(
            "noisy objective unbounded even after regularization; use "
            "kRegularizeAndTrim or kAdaptive");
      case PostProcessing::kResample:
        continue;  // redraw the noise
      case PostProcessing::kRegularizeAndTrim: {
        FM_ASSIGN_OR_RETURN(
            report.omega,
            SpectralTrimMinimize(noisy, &report.trimmed_eigenvalues));
        report.used_spectral_trimming = true;
        return report;
      }
      case PostProcessing::kAdaptive:
        break;  // handled above; unreachable
    }
  }
  // Resampling exhausted: even Lemma 5's budget cannot be honored here.
  return Status::NumericalError(
      "resampling did not produce a bounded objective within " +
      std::to_string(options.max_resample_attempts) + " attempts");
}

double LinearRegressionSensitivity(size_t d) {
  const double dd = static_cast<double>(d);
  return 2.0 * (1.0 + 2.0 * dd + dd * dd);
}

double LogisticRegressionSensitivity(size_t d) {
  const double dd = static_cast<double>(d);
  return dd * dd / 4.0 + 3.0 * dd;
}

}  // namespace fm::core
