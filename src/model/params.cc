#include "model/params.h"

#include <cmath>
#include <sstream>

#include "support/check.h"

namespace rbx {

ProcessSetParams::ProcessSetParams(std::vector<double> mu,
                                   std::vector<double> lambda_flat)
    : mu_(std::move(mu)), lambda_(std::move(lambda_flat)) {
  const std::size_t n = mu_.size();
  RBX_CHECK_MSG(n >= 1, "at least one process");
  RBX_CHECK_MSG(lambda_.size() == n * n, "lambda must be n x n");
  for (double m : mu_) {
    RBX_CHECK_MSG(m > 0.0, "recovery point rates must be positive");
  }
  for (std::size_t i = 0; i < n; ++i) {
    RBX_CHECK_MSG(lambda_[i * n + i] == 0.0, "lambda diagonal must be zero");
    for (std::size_t j = 0; j < n; ++j) {
      RBX_CHECK_MSG(lambda_[i * n + j] >= 0.0, "lambda must be non-negative");
      RBX_CHECK_MSG(lambda_[i * n + j] == lambda_[j * n + i],
                    "lambda must be symmetric");
    }
  }
}

ProcessSetParams ProcessSetParams::symmetric(std::size_t n, double mu,
                                             double lambda) {
  std::vector<double> mus(n, mu);
  std::vector<double> lam(n * n, lambda);
  for (std::size_t i = 0; i < n; ++i) {
    lam[i * n + i] = 0.0;
  }
  return ProcessSetParams(std::move(mus), std::move(lam));
}

ProcessSetParams ProcessSetParams::three(double mu1, double mu2, double mu3,
                                         double l12, double l23, double l13) {
  std::vector<double> mus = {mu1, mu2, mu3};
  std::vector<double> lam(9, 0.0);
  auto set = [&lam](std::size_t i, std::size_t j, double v) {
    lam[i * 3 + j] = v;
    lam[j * 3 + i] = v;
  };
  set(0, 1, l12);
  set(1, 2, l23);
  set(0, 2, l13);
  return ProcessSetParams(std::move(mus), std::move(lam));
}

double ProcessSetParams::mu(std::size_t i) const {
  RBX_CHECK(i < mu_.size());
  return mu_[i];
}

double ProcessSetParams::lambda(std::size_t i, std::size_t j) const {
  RBX_CHECK(i < mu_.size() && j < mu_.size());
  return lambda_[i * mu_.size() + j];
}

double ProcessSetParams::total_mu() const {
  double sum = 0.0;
  for (double m : mu_) {
    sum += m;
  }
  return sum;
}

double ProcessSetParams::total_lambda() const {
  const std::size_t n = mu_.size();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      sum += lambda_[i * n + j];
    }
  }
  return sum;
}

std::vector<std::pair<std::size_t, std::size_t>>
ProcessSetParams::interacting_pairs() const {
  const std::size_t n = mu_.size();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (lambda_[i * n + j] > 0.0) {
        pairs.push_back({i, j});
      }
    }
  }
  return pairs;
}

double ProcessSetParams::interaction_rate(std::size_t i) const {
  RBX_CHECK(i < mu_.size());
  const std::size_t n = mu_.size();
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    sum += lambda_[i * n + j];
  }
  return sum;
}

double ProcessSetParams::total_event_rate() const {
  return total_lambda() + total_mu();
}

double ProcessSetParams::rho() const { return total_lambda() / total_mu(); }

bool ProcessSetParams::is_symmetric_rates() const {
  const std::size_t n = mu_.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (mu_[i] != mu_[0]) {
      return false;
    }
  }
  if (n < 2) {
    return true;
  }
  const double l0 = lambda_[1];  // lambda(0, 1)
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && lambda_[i * n + j] != l0) {
        return false;
      }
    }
  }
  return true;
}

std::string ProcessSetParams::describe() const {
  std::ostringstream os;
  os << "n=" << n() << " mu=(";
  for (std::size_t i = 0; i < n(); ++i) {
    os << (i ? "," : "") << mu_[i];
  }
  os << ") lambda=(";
  bool first = true;
  for (std::size_t i = 0; i < n(); ++i) {
    for (std::size_t j = i + 1; j < n(); ++j) {
      os << (first ? "" : ",") << lambda(i, j);
      first = false;
    }
  }
  os << ") rho=" << rho();
  return os.str();
}

}  // namespace rbx
