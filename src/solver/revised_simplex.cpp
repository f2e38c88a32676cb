#include "solver/revised_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"

namespace hadar::solver {
namespace {

// Feasibility / canonicalization tolerances (looser than the pivot eps:
// they judge *values*, not pivot magnitudes — the same 1e-7 artificial-sum
// test as the dense oracle in tests/).
constexpr double kFeasTol = 1e-7;
constexpr double kCanonTol = 1e-7;
// Product-form updates accumulate roundoff; refresh the explicit inverse
// from scratch every so many pivots.
constexpr int kRefactorEvery = 128;

struct ColEntry {
  int row;
  double val;
};

// Deterministic "generic" weight in [1, 2) for the phase-3 secondary
// objective (SplitMix64 finalizer). A hash — rather than, say, multiples of
// an irrational — matters: sequence-structured weights make w_{j+k} - w_j
// constant in j, and face directions that pair variables with their slacks a
// fixed index stride apart (components summing to zero) would then be
// exactly secondary-neutral, leaving the canonical point ambiguous.
double secondary_weight(int j) {
  std::uint64_t z = static_cast<std::uint64_t>(j) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return 1.0 + static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

// Revised simplex over the standard form  max c^T x, A x = b (b >= 0),
// x >= 0, built once per solve. Column layout matches the dense test oracle:
// [structural | slack/surplus | artificial], except that here EVERY row owns
// an artificial column (art_first_ + row) so a warm crash always has a unit
// column available for rows it cannot cover. Artificials for rows that never
// needed one ("extra" artificials on <= rows) are barred from entering in
// all phases.
class RevisedEngine {
 public:
  RevisedEngine(const LpProblem& lp, const SimplexOptions& opts)
      : lp_(lp), opts_(opts), m_(lp.num_constraints()), n_struct_(lp.num_vars()) {
    build_standard_form();
  }

  int n_struct() const { return n_struct_; }
  int art_first() const { return art_first_; }
  // Column index of row i's slack/surplus variable, -1 for equality rows.
  int slack_col_of_row(int i) const { return slack_col_of_row_[static_cast<std::size_t>(i)]; }
  int row_of_slack_col(int j) const {
    return row_of_slack_[static_cast<std::size_t>(j - n_struct_)];
  }
  const std::vector<int>& basis() const { return basis_; }
  // The deterministic support-completed basis from the last successful
  // extract() (empty when extraction fell back to the pivot basis).
  const std::vector<int>& canonical_extract_basis() const { return canon_basis_; }

  // `warm_candidates`: ascending column indices to crash a starting basis
  // from, or nullptr for a cold start. `warm_used` reports whether the warm
  // basis was accepted (phase 1 skipped).
  LpSolution run(const std::vector<int>* warm_candidates, RevisedStats* stats,
                 bool* warm_used) {
    *warm_used = false;
    LpSolution sol;
    iters_left_ = opts_.max_iterations;

    if (warm_candidates != nullptr) {
      ++stats->warm_attempts;
      if (try_warm_crash(*warm_candidates)) {
        *warm_used = true;
        ++stats->warm_hits;
        obs::count("solver.warm_hits");
      }
    }
    if (!*warm_used) {
      ++stats->cold_solves;
      obs::count("solver.cold_solves");
      init_cold_basis();
      if (n_real_art_ > 0) {
        HADAR_TRACE_SCOPE("lp", "lp.phase1", 2);
        const LpStatus st = phase1(stats);
        if (st != LpStatus::kOptimal) {
          sol.status = st;
          return sol;
        }
      }
    }
    // Both paths arrive here with a primal-feasible basis whose basic
    // artificials are all ~0; eject as many of those as possible so phase-2
    // pivots cannot re-inflate them (rows where no structural/slack pivot
    // exists are redundant — their artificial is frozen at 0 forever).
    drive_out_artificials();

    LpStatus st;
    {
      HADAR_TRACE_SCOPE("lp", "lp.phase2", 2);
      st = phase2(stats);
    }
    if (st != LpStatus::kOptimal) {
      sol.status = st;
      return sol;
    }
    {
      HADAR_TRACE_SCOPE("lp", "lp.canonicalize", 2);
      canonicalize(stats);
    }
    extract(sol);
    return sol;
  }

 private:
  // ---- standard form ------------------------------------------------------

  void build_standard_form() {
    slack_col_of_row_.assign(static_cast<std::size_t>(m_), -1);
    is_real_art_.assign(static_cast<std::size_t>(m_), false);
    b_.assign(static_cast<std::size_t>(m_), 0.0);

    // Pass 1: relations after sign-flip, slack numbering.
    std::vector<Relation> rel(static_cast<std::size_t>(m_));
    std::vector<double> sign(static_cast<std::size_t>(m_), 1.0);
    int n_slack = 0;
    for (int i = 0; i < m_; ++i) {
      const auto& row = lp_.rows()[static_cast<std::size_t>(i)];
      Relation r = row.rel;
      if (row.b < 0.0) {
        sign[static_cast<std::size_t>(i)] = -1.0;
        r = r == Relation::kLessEqual
                ? Relation::kGreaterEqual
                : (r == Relation::kGreaterEqual ? Relation::kLessEqual : Relation::kEqual);
      }
      rel[static_cast<std::size_t>(i)] = r;
      b_[static_cast<std::size_t>(i)] = sign[static_cast<std::size_t>(i)] * row.b;
      if (r != Relation::kEqual) {
        slack_col_of_row_[static_cast<std::size_t>(i)] = n_struct_ + n_slack;
        ++n_slack;
      }
      if (r != Relation::kLessEqual) {
        is_real_art_[static_cast<std::size_t>(i)] = true;
        ++n_real_art_;
      }
    }
    art_first_ = n_struct_ + n_slack;
    n_ = art_first_ + m_;

    row_of_slack_.assign(static_cast<std::size_t>(n_slack), -1);
    for (int i = 0; i < m_; ++i) {
      const int sc = slack_col_of_row_[static_cast<std::size_t>(i)];
      if (sc >= 0) row_of_slack_[static_cast<std::size_t>(sc - n_struct_)] = i;
    }

    // Pass 2: sparse columns (CSC) for structural + slack columns.
    // Artificial columns are implicit unit vectors.
    std::vector<int> count(static_cast<std::size_t>(art_first_) + 1, 0);
    for (int i = 0; i < m_; ++i) {
      for (const SparseEntry& e : lp_.rows()[static_cast<std::size_t>(i)].a) {
        ++count[static_cast<std::size_t>(e.index)];
      }
      if (slack_col_of_row_[static_cast<std::size_t>(i)] >= 0) {
        ++count[static_cast<std::size_t>(slack_col_of_row_[static_cast<std::size_t>(i)])];
      }
    }
    col_ptr_.assign(static_cast<std::size_t>(art_first_) + 1, 0);
    for (int j = 0; j < art_first_; ++j) {
      col_ptr_[static_cast<std::size_t>(j) + 1] =
          col_ptr_[static_cast<std::size_t>(j)] + count[static_cast<std::size_t>(j)];
    }
    entries_.resize(static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(art_first_)]));
    std::vector<int> next(col_ptr_.begin(), col_ptr_.end() - 1);
    for (int i = 0; i < m_; ++i) {
      const double si = sign[static_cast<std::size_t>(i)];
      for (const SparseEntry& e : lp_.rows()[static_cast<std::size_t>(i)].a) {
        entries_[static_cast<std::size_t>(next[static_cast<std::size_t>(e.index)]++)] = {
            i, si * e.value};
      }
      const int sc = slack_col_of_row_[static_cast<std::size_t>(i)];
      if (sc >= 0) {
        const double sv = rel[static_cast<std::size_t>(i)] == Relation::kLessEqual ? 1.0 : -1.0;
        entries_[static_cast<std::size_t>(next[static_cast<std::size_t>(sc)]++)] = {i, sv};
      }
    }

    // Phase costs.
    phase1_cost_.assign(static_cast<std::size_t>(n_), 0.0);
    for (int i = 0; i < m_; ++i) {
      if (is_real_art_[static_cast<std::size_t>(i)]) {
        phase1_cost_[static_cast<std::size_t>(art_first_ + i)] = -1.0;
      }
    }
    phase2_cost_.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_struct_; ++j) {
      phase2_cost_[static_cast<std::size_t>(j)] = lp_.objective()[static_cast<std::size_t>(j)];
    }

    binv_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_), 0.0);
    xb_.assign(static_cast<std::size_t>(m_), 0.0);
    basis_.assign(static_cast<std::size_t>(m_), -1);
    in_basis_.assign(static_cast<std::size_t>(n_), 0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    pi_.assign(static_cast<std::size_t>(m_), 0.0);
    pi2_.assign(static_cast<std::size_t>(m_), 0.0);
    rho_.assign(static_cast<std::size_t>(m_), 0.0);
  }

  // ---- linear algebra on the explicit inverse -----------------------------

  double* binv_col(int k) { return binv_.data() + static_cast<std::size_t>(k) * m_; }

  // y_ = B^-1 * A_j.
  void ftran(int j) {
    std::fill(y_.begin(), y_.end(), 0.0);
    if (j >= art_first_) {
      const double* col = binv_col(j - art_first_);
      std::copy(col, col + m_, y_.begin());
      return;
    }
    for (int p = col_ptr_[static_cast<std::size_t>(j)];
         p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const ColEntry& e = entries_[static_cast<std::size_t>(p)];
      const double* col = binv_col(e.row);
      const double v = e.val;
      for (int i = 0; i < m_; ++i) y_[static_cast<std::size_t>(i)] += v * col[i];
    }
  }

  // out = c_B^T B^-1 for the given phase cost.
  void price_into(const std::vector<double>& cost, std::vector<double>& out) {
    // Collect the (usually few) nonzero basic costs once.
    nz_cb_.clear();
    for (int i = 0; i < m_; ++i) {
      const double c = cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
      if (c != 0.0) nz_cb_.push_back({i, c});
    }
    if (nz_cb_.empty()) {
      std::fill(out.begin(), out.end(), 0.0);
      return;
    }
    for (int k = 0; k < m_; ++k) {
      const double* col = binv_col(k);
      double s = 0.0;
      for (const ColEntry& e : nz_cb_) s += e.val * col[e.row];
      out[static_cast<std::size_t>(k)] = s;
    }
  }

  void price(const std::vector<double>& cost) { price_into(cost, pi_); }

  // c_j - pi . A_j against an explicit pricing vector.
  double reduced_cost_with(int j, const std::vector<double>& cost,
                           const std::vector<double>& pi) const {
    double d = cost[static_cast<std::size_t>(j)];
    if (j >= art_first_) return d - pi[static_cast<std::size_t>(j - art_first_)];
    for (int p = col_ptr_[static_cast<std::size_t>(j)];
         p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const ColEntry& e = entries_[static_cast<std::size_t>(p)];
      d -= pi[static_cast<std::size_t>(e.row)] * e.val;
    }
    return d;
  }

  // c_j - pi . A_j (pi_ must be current).
  double reduced_cost(int j, const std::vector<double>& cost) const {
    return reduced_cost_with(j, cost, pi_);
  }

  // Product-form pivot: column q enters in row r; y_ holds B^-1 A_q.
  void update_basis(int r, int q) {
    const double piv = y_[static_cast<std::size_t>(r)];
    const double inv = 1.0 / piv;
    for (int k = 0; k < m_; ++k) {
      double* col = binv_col(k);
      const double t = col[r];
      if (t == 0.0) continue;
      const double tp = t * inv;
      for (int i = 0; i < m_; ++i) col[i] -= y_[static_cast<std::size_t>(i)] * tp;
      col[r] = tp;  // the i==r subtraction above zeroed it; restore E*col row r
    }
    const double ratio = xb_[static_cast<std::size_t>(r)] * inv;
    for (int i = 0; i < m_; ++i) {
      xb_[static_cast<std::size_t>(i)] -= y_[static_cast<std::size_t>(i)] * ratio;
    }
    xb_[static_cast<std::size_t>(r)] = ratio;
    in_basis_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] = 0;
    basis_[static_cast<std::size_t>(r)] = q;
    in_basis_[static_cast<std::size_t>(q)] = 1;
    ++pivots_since_refactor_;
  }

  // Writes the dense standard-form column j into out (size m_).
  void scatter_column(int j, std::vector<double>& out) const {
    std::fill(out.begin(), out.end(), 0.0);
    if (j >= art_first_) {
      out[static_cast<std::size_t>(j - art_first_)] = 1.0;
      return;
    }
    for (int p = col_ptr_[static_cast<std::size_t>(j)];
         p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const ColEntry& e = entries_[static_cast<std::size_t>(p)];
      out[static_cast<std::size_t>(e.row)] = e.val;
    }
  }

  // Recomputes binv_ and xb_ from scratch for the current basis_ via
  // Gauss-Jordan with partial pivoting (deterministic: max |pivot|, first
  // row on ties). Returns false on a singular basis.
  bool refactorize(RevisedStats* stats) {
    ++stats->refactorizations;
    pivots_since_refactor_ = 0;
    if (m_ == 0) return true;
    // work = [B | I], row-major, 2m columns.
    const std::size_t w = 2 * static_cast<std::size_t>(m_);
    work_.assign(static_cast<std::size_t>(m_) * w, 0.0);
    std::vector<double> col(static_cast<std::size_t>(m_));
    for (int k = 0; k < m_; ++k) {
      scatter_column(basis_[static_cast<std::size_t>(k)], col);
      for (int i = 0; i < m_; ++i) work_[static_cast<std::size_t>(i) * w + k] = col[i];
      work_[static_cast<std::size_t>(k) * w + m_ + k] = 1.0;
    }
    for (int k = 0; k < m_; ++k) {
      int p = k;
      double best = std::fabs(work_[static_cast<std::size_t>(k) * w + k]);
      for (int i = k + 1; i < m_; ++i) {
        const double v = std::fabs(work_[static_cast<std::size_t>(i) * w + k]);
        if (v > best) {
          best = v;
          p = i;
        }
      }
      if (best < 1e-12) return false;
      if (p != k) {
        for (std::size_t j = 0; j < w; ++j) {
          std::swap(work_[static_cast<std::size_t>(k) * w + j],
                    work_[static_cast<std::size_t>(p) * w + j]);
        }
      }
      const double inv = 1.0 / work_[static_cast<std::size_t>(k) * w + k];
      for (std::size_t j = 0; j < w; ++j) work_[static_cast<std::size_t>(k) * w + j] *= inv;
      for (int i = 0; i < m_; ++i) {
        if (i == k) continue;
        const double f = work_[static_cast<std::size_t>(i) * w + k];
        if (f == 0.0) continue;
        for (std::size_t j = 0; j < w; ++j) {
          work_[static_cast<std::size_t>(i) * w + j] -=
              f * work_[static_cast<std::size_t>(k) * w + j];
        }
      }
    }
    // binv column k = column (m_+k) of the reduced [B|I]; xb = binv b.
    for (int k = 0; k < m_; ++k) {
      double* bc = binv_col(k);
      for (int i = 0; i < m_; ++i) bc[i] = work_[static_cast<std::size_t>(i) * w + m_ + k];
    }
    for (int i = 0; i < m_; ++i) {
      double s = 0.0;
      for (int k = 0; k < m_; ++k) s += binv_col(k)[i] * b_[static_cast<std::size_t>(k)];
      xb_[static_cast<std::size_t>(i)] = s;
    }
    return true;
  }

  // ---- starting bases -----------------------------------------------------

  void init_cold_basis() {
    // Slack basic on <=-rows, artificial elsewhere: B = I exactly.
    std::fill(in_basis_.begin(), in_basis_.end(), 0);
    std::fill(binv_.begin(), binv_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int sc = slack_col_of_row_[static_cast<std::size_t>(i)];
      const int bj = (sc >= 0 && !is_real_art_[static_cast<std::size_t>(i)])
                         ? sc
                         : art_first_ + i;
      basis_[static_cast<std::size_t>(i)] = bj;
      in_basis_[static_cast<std::size_t>(bj)] = 1;
      binv_col(i)[i] = 1.0;
      xb_[static_cast<std::size_t>(i)] = b_[static_cast<std::size_t>(i)];
    }
    pivots_since_refactor_ = 0;
  }

  // Crashes a basis from `candidates` (ascending column indices): starts
  // from the all-artificial identity basis and pivots each independent
  // candidate in, assigning it the still-artificial row where its
  // transformed column is largest (ties -> smallest row). Dependent
  // candidates are dropped; uncovered rows keep their artificial. Accepts
  // the result only if it is primal-feasible with all basic artificials ~0 —
  // that certifies feasibility of the LP itself, which is what makes
  // skipping phase 1 sound.
  bool try_warm_crash(const std::vector<int>& candidates) {
    if (m_ == 0) return true;
    std::fill(in_basis_.begin(), in_basis_.end(), 0);
    std::fill(binv_.begin(), binv_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      basis_[static_cast<std::size_t>(i)] = art_first_ + i;
      in_basis_[static_cast<std::size_t>(art_first_ + i)] = 1;
      binv_col(i)[i] = 1.0;
      xb_[static_cast<std::size_t>(i)] = b_[static_cast<std::size_t>(i)];
    }
    pivots_since_refactor_ = 0;

    for (const int j : candidates) {
      if (j < 0 || j >= art_first_ || in_basis_[static_cast<std::size_t>(j)]) continue;
      ftran(j);
      int r = -1;
      double best = 1e-9;
      for (int i = 0; i < m_; ++i) {
        if (basis_[static_cast<std::size_t>(i)] < art_first_) continue;  // row taken
        const double v = std::fabs(y_[static_cast<std::size_t>(i)]);
        if (v > best) {
          best = v;
          r = i;
        }
      }
      if (r < 0) continue;  // dependent on already-chosen columns
      update_basis(r, j);
    }

    // Feasibility gate on a fresh LU solve of B x_B = b (m^3/3 — far cheaper
    // than re-inverting). A singular crash basis is rejected here. The
    // product-form binv_ built by the crash pivots is kept for phase 2: the
    // crash starts from an exact identity, so its accumulated error matches a
    // near-refactorized state and does not warrant paying a full inversion.
    {
      std::vector<double> vals;
      if (!lu_solve(basis_, vals)) return false;
      xb_ = vals;
      pivots_since_refactor_ = 0;
    }
    for (int i = 0; i < m_; ++i) {
      if (xb_[static_cast<std::size_t>(i)] < -kFeasTol) return false;
      if (basis_[static_cast<std::size_t>(i)] >= art_first_ &&
          xb_[static_cast<std::size_t>(i)] > kFeasTol) {
        return false;
      }
    }
    for (int i = 0; i < m_; ++i) {
      if (xb_[static_cast<std::size_t>(i)] < 0.0) xb_[static_cast<std::size_t>(i)] = 0.0;
    }
    return true;
  }

  bool refactorize_if_due(bool force, RevisedStats* stats) {
    if (!force && pivots_since_refactor_ < kRefactorEvery) return true;
    RevisedStats scratch;
    return refactorize(stats != nullptr ? stats : &scratch);
  }

  // ---- simplex phases -----------------------------------------------------

  // Ejects zero-valued basic artificials by pivoting on any structural or
  // slack column with a nonzero entry in that row (a pivot at value 0 keeps
  // xb unchanged, so feasibility is preserved for any pivot sign). Rows with
  // no such column are redundant: every FTRAN has a zero there, so the
  // artificial's value can never move off 0.
  void drive_out_artificials() {
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] < art_first_) continue;
      // rho = row r of B^-1 (strided gather).
      for (int k = 0; k < m_; ++k) rho_[static_cast<std::size_t>(k)] = binv_col(k)[r];
      int enter = -1;
      for (int j = 0; j < art_first_ && enter < 0; ++j) {
        if (in_basis_[static_cast<std::size_t>(j)]) continue;
        double v = 0.0;
        for (int p = col_ptr_[static_cast<std::size_t>(j)];
             p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
          const ColEntry& e = entries_[static_cast<std::size_t>(p)];
          v += rho_[static_cast<std::size_t>(e.row)] * e.val;
        }
        if (std::fabs(v) > opts_.eps) enter = j;
      }
      if (enter >= 0) {
        ftran(enter);
        update_basis(r, enter);
      }
    }
  }

  // Bland's rule iteration for one phase. `allow_artificials` admits the
  // real artificial columns (phase 1 mirrors the dense test oracle, where
  // artificials stay enterable until phase 2 bars them).
  LpStatus iterate(const std::vector<double>& cost, bool allow_artificials,
                   std::uint64_t* pivot_counter, RevisedStats* stats) {
    while (iters_left_-- > 0) {
      if (!refactorize_if_due(false, stats)) return LpStatus::kIterationLimit;
      price(cost);
      int q = -1;
      for (int j = 0; j < n_; ++j) {
        if (in_basis_[static_cast<std::size_t>(j)]) continue;
        if (j >= art_first_ &&
            (!allow_artificials || !is_real_art_[static_cast<std::size_t>(j - art_first_)])) {
          continue;
        }
        if (reduced_cost(j, cost) > opts_.eps) {
          q = j;
          break;
        }
      }
      if (q < 0) return LpStatus::kOptimal;

      ftran(q);
      // Ratio test; ties (within eps) leave the smallest basis index, the
      // same rule as the dense test oracle.
      int r = -1;
      double best = 0.0;
      for (int i = 0; i < m_; ++i) {
        const double yi = y_[static_cast<std::size_t>(i)];
        if (yi > opts_.eps) {
          const double ratio = xb_[static_cast<std::size_t>(i)] / yi;
          if (r < 0 || ratio < best - opts_.eps ||
              (ratio < best + opts_.eps &&
               basis_[static_cast<std::size_t>(i)] < basis_[static_cast<std::size_t>(r)])) {
            r = i;
            best = ratio;
          }
        }
      }
      if (r < 0) return LpStatus::kUnbounded;
      update_basis(r, q);
      ++*pivot_counter;
    }
    return LpStatus::kIterationLimit;
  }

  LpStatus phase1(RevisedStats* stats) {
    const LpStatus st = iterate(phase1_cost_, /*allow_artificials=*/true,
                                &stats->phase1_pivots, stats);
    if (st != LpStatus::kOptimal) return st;
    double art_sum = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] >= art_first_) {
        art_sum += xb_[static_cast<std::size_t>(i)];
      }
    }
    if (art_sum > kFeasTol) return LpStatus::kInfeasible;
    for (int i = 0; i < m_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] >= art_first_ &&
          xb_[static_cast<std::size_t>(i)] < 0.0) {
        xb_[static_cast<std::size_t>(i)] = 0.0;
      }
    }
    return LpStatus::kOptimal;
  }

  LpStatus phase2(RevisedStats* stats) {
    return iterate(phase2_cost_, /*allow_artificials=*/false, &stats->phase2_pivots, stats);
  }

  // Phase 3: canonicalize the optimal POINT. Different pivot paths (warm vs
  // cold) may stop at different optimal vertices of a degenerate LP, so
  // after phase 2 we minimize a fixed generic secondary objective
  //   s(x) = sum_j w_j x_j,  w_j = secondary_weight(j) in [1, 2)
  // over the optimal face. Pivoting is restricted to columns whose PHASE-2
  // reduced cost is ~0 (pivots on such columns leave every phase-2 reduced
  // cost unchanged, so the face-column set is invariant); Bland's rule on the
  // secondary reduced costs guarantees termination. Since all x >= 0 and
  // w > 0, s is bounded below, and with hash-generic weights its minimizer
  // over the face is unique in practice — both paths land on the SAME point
  // no matter where on the face they entered.
  void canonicalize(RevisedStats* stats) {
    if (m_ == 0) return;
    if (phase3_cost_.empty()) {
      phase3_cost_.assign(static_cast<std::size_t>(n_), 0.0);
      for (int j = 0; j < art_first_; ++j) {
        phase3_cost_[static_cast<std::size_t>(j)] = -secondary_weight(j);
      }
    }
    int guard = 64 * (m_ + 16);
    while (guard-- > 0) {
      if (!refactorize_if_due(false, stats)) return;
      price_into(phase2_cost_, pi2_);
      price(phase3_cost_);
      int q = -1;
      for (int j = 0; j < art_first_; ++j) {
        if (in_basis_[static_cast<std::size_t>(j)]) continue;
        if (std::fabs(reduced_cost_with(j, phase2_cost_, pi2_)) > kCanonTol) continue;
        if (reduced_cost(j, phase3_cost_) > opts_.eps) {
          q = j;
          break;
        }
      }
      if (q < 0) return;  // secondary-optimal on the face: canonical point
      ftran(q);
      int r = -1;
      double best = 0.0;
      for (int i = 0; i < m_; ++i) {
        const double yi = y_[static_cast<std::size_t>(i)];
        if (yi > opts_.eps) {
          const double ratio = xb_[static_cast<std::size_t>(i)] / yi;
          if (r < 0 || ratio < best - opts_.eps ||
              (ratio < best + opts_.eps &&
               basis_[static_cast<std::size_t>(i)] < basis_[static_cast<std::size_t>(r)])) {
            r = i;
            best = ratio;
          }
        }
      }
      if (r < 0) return;  // s >= 0 is bounded; only roundoff can land here
      update_basis(r, q);
      ++stats->canonical_pivots;
    }
  }

  // ---- canonical extraction ----------------------------------------------

  // Rebuilds a canonical basis from the solution's SUPPORT: the positive
  // basic columns are forced in, then the set is completed greedily by
  // ascending column index (structural, slack, then artificials for
  // redundant rows), accepting a column iff it is independent of those
  // already chosen. Every decision consumes only exact LP data plus the
  // support SET, so two pivot paths ending at the same point — even with
  // different degenerate bases — produce the identical basis. Returns false
  // if the support columns themselves look dependent (roundoff pathology).
  bool canonical_basis(std::vector<int>& out) {
    out.clear();
    std::vector<int> support;
    for (int i = 0; i < m_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] < art_first_ &&
          xb_[static_cast<std::size_t>(i)] > kFeasTol) {
        support.push_back(basis_[static_cast<std::size_t>(i)]);
      }
    }
    std::sort(support.begin(), support.end());

    // Incremental elimination state: accepted columns reduced against each
    // other, with their pivot rows retired.
    std::vector<std::vector<double>> reduced;
    std::vector<int> pivot_row;
    std::vector<char> row_used(static_cast<std::size_t>(m_), 0);
    std::vector<double> col(static_cast<std::size_t>(m_));
    auto try_add = [&](int j) {
      scatter_column(j, col);
      for (std::size_t k = 0; k < reduced.size(); ++k) {
        const double f = col[static_cast<std::size_t>(pivot_row[k])];
        if (f == 0.0) continue;
        const std::vector<double>& u = reduced[k];
        for (int i = 0; i < m_; ++i) {
          col[static_cast<std::size_t>(i)] -= f * u[static_cast<std::size_t>(i)];
        }
        col[static_cast<std::size_t>(pivot_row[k])] = 0.0;
      }
      int p = -1;
      double best = 1e-9;
      for (int i = 0; i < m_; ++i) {
        if (row_used[static_cast<std::size_t>(i)]) continue;
        const double v = std::fabs(col[static_cast<std::size_t>(i)]);
        if (v > best) {
          best = v;
          p = i;
        }
      }
      if (p < 0) return false;  // dependent
      const double inv = 1.0 / col[static_cast<std::size_t>(p)];
      for (int i = 0; i < m_; ++i) col[static_cast<std::size_t>(i)] *= inv;
      reduced.push_back(col);
      pivot_row.push_back(p);
      row_used[static_cast<std::size_t>(p)] = 1;
      out.push_back(j);
      return true;
    };

    for (const int j : support) {
      if (!try_add(j)) return false;  // support must be independent
    }
    std::size_t si = 0;
    for (int j = 0; j < art_first_ && static_cast<int>(out.size()) < m_; ++j) {
      if (si < support.size() && support[si] == j) {
        ++si;
        continue;
      }
      try_add(j);
    }
    // Rows structural+slack columns cannot span are redundant; their unit
    // artificial completes the basis (ascending row order).
    for (int i = 0; i < m_ && static_cast<int>(out.size()) < m_; ++i) {
      if (!row_used[static_cast<std::size_t>(i)]) try_add(art_first_ + i);
    }
    if (static_cast<int>(out.size()) != m_) return false;
    std::sort(out.begin(), out.end());
    return true;
  }

  // x is recomputed from the canonical basis set with a fresh LU solve, so
  // the reported solution depends only on (LP, optimal point) — not on the
  // pivot path or the warm/cold route that reached it.
  void extract(LpSolution& sol) {
    sol.status = LpStatus::kOptimal;
    sol.x.assign(static_cast<std::size_t>(n_struct_), 0.0);
    canon_basis_.clear();
    if (m_ > 0) {
      std::vector<int> sorted;
      std::vector<double> vals;
      if (!canonical_basis(sorted) || !lu_solve(sorted, vals)) {
        // Roundoff pathology; fall back to the pivot basis and the engine's
        // incremental values (still a valid optimum, just not guaranteed
        // path-independent).
        sorted = basis_;
        std::sort(sorted.begin(), sorted.end());
        if (!lu_solve(sorted, vals)) {
          sorted = basis_;
          vals.assign(xb_.begin(), xb_.end());
        }
      }
      canon_basis_ = sorted;
      for (int k = 0; k < m_; ++k) {
        const int j = sorted[static_cast<std::size_t>(k)];
        if (j < n_struct_) {
          sol.x[static_cast<std::size_t>(j)] = std::max(0.0, vals[static_cast<std::size_t>(k)]);
        }
      }
    }
    double obj = 0.0;
    for (int j = 0; j < n_struct_; ++j) {
      obj += lp_.objective()[static_cast<std::size_t>(j)] * sol.x[static_cast<std::size_t>(j)];
    }
    sol.objective = obj;
  }

  // Solves B(cols) v = b with partial-pivoted LU (deterministic: max
  // |pivot|, first row on ties). Returns false if singular.
  bool lu_solve(const std::vector<int>& cols, std::vector<double>& v) {
    const std::size_t mm = static_cast<std::size_t>(m_);
    work_.assign(mm * mm, 0.0);  // row-major
    std::vector<double> col(mm);
    for (int k = 0; k < m_; ++k) {
      scatter_column(cols[static_cast<std::size_t>(k)], col);
      for (int i = 0; i < m_; ++i) {
        work_[static_cast<std::size_t>(i) * mm + static_cast<std::size_t>(k)] =
            col[static_cast<std::size_t>(i)];
      }
    }
    v.assign(b_.begin(), b_.end());
    for (int k = 0; k < m_; ++k) {
      int p = k;
      double best =
          std::fabs(work_[static_cast<std::size_t>(k) * mm + static_cast<std::size_t>(k)]);
      for (int i = k + 1; i < m_; ++i) {
        const double t =
            std::fabs(work_[static_cast<std::size_t>(i) * mm + static_cast<std::size_t>(k)]);
        if (t > best) {
          best = t;
          p = i;
        }
      }
      if (best < 1e-12) return false;
      if (p != k) {
        for (int j = 0; j < m_; ++j) {
          std::swap(work_[static_cast<std::size_t>(k) * mm + static_cast<std::size_t>(j)],
                    work_[static_cast<std::size_t>(p) * mm + static_cast<std::size_t>(j)]);
        }
        std::swap(v[static_cast<std::size_t>(k)], v[static_cast<std::size_t>(p)]);
      }
      const double inv =
          1.0 / work_[static_cast<std::size_t>(k) * mm + static_cast<std::size_t>(k)];
      for (int i = k + 1; i < m_; ++i) {
        const double f =
            work_[static_cast<std::size_t>(i) * mm + static_cast<std::size_t>(k)] * inv;
        if (f == 0.0) continue;
        work_[static_cast<std::size_t>(i) * mm + static_cast<std::size_t>(k)] = f;
        for (int j = k + 1; j < m_; ++j) {
          work_[static_cast<std::size_t>(i) * mm + static_cast<std::size_t>(j)] -=
              f * work_[static_cast<std::size_t>(k) * mm + static_cast<std::size_t>(j)];
        }
        v[static_cast<std::size_t>(i)] -= f * v[static_cast<std::size_t>(k)];
      }
    }
    for (int i = m_ - 1; i >= 0; --i) {
      double s = v[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < m_; ++j) {
        s -= work_[static_cast<std::size_t>(i) * mm + static_cast<std::size_t>(j)] *
             v[static_cast<std::size_t>(j)];
      }
      v[static_cast<std::size_t>(i)] =
          s / work_[static_cast<std::size_t>(i) * mm + static_cast<std::size_t>(i)];
    }
    return true;
  }

  // ---- data ---------------------------------------------------------------

  const LpProblem& lp_;
  const SimplexOptions opts_;
  const int m_;
  const int n_struct_;
  int art_first_ = 0;
  int n_ = 0;
  int n_real_art_ = 0;
  int iters_left_ = 0;
  int pivots_since_refactor_ = 0;

  std::vector<int> slack_col_of_row_;
  std::vector<int> row_of_slack_;
  std::vector<bool> is_real_art_;
  std::vector<double> b_;
  std::vector<int> col_ptr_;
  std::vector<ColEntry> entries_;
  std::vector<double> phase1_cost_;
  std::vector<double> phase2_cost_;
  std::vector<double> phase3_cost_;  // canonicalization secondary objective

  std::vector<double> binv_;  // column-major m x m
  std::vector<double> xb_;
  std::vector<int> basis_;
  std::vector<char> in_basis_;
  std::vector<double> y_;
  std::vector<double> pi_;
  std::vector<double> pi2_;  // second pricing buffer for phase-3 face tests
  std::vector<double> rho_;
  std::vector<int> canon_basis_;
  std::vector<ColEntry> nz_cb_;
  std::vector<double> work_;
};

}  // namespace

LpSolution LpContext::solve(const LpProblem& lp, const LpLabels& labels,
                            const SimplexOptions& opts) {
  if (static_cast<int>(labels.var.size()) != lp.num_vars() ||
      static_cast<int>(labels.row.size()) != lp.num_constraints()) {
    throw std::invalid_argument("LpContext::solve: label arity mismatch");
  }
  RevisedEngine eng(lp, opts);

  std::vector<int> candidates;
  if (has_basis_) {
    // Ascending by construction: structural columns first, then slacks.
    for (int j = 0; j < lp.num_vars(); ++j) {
      if (std::binary_search(basic_vars_.begin(), basic_vars_.end(),
                             labels.var[static_cast<std::size_t>(j)])) {
        candidates.push_back(j);
      }
    }
    for (int i = 0; i < lp.num_constraints(); ++i) {
      const int sc = eng.slack_col_of_row(i);
      if (sc >= 0 && std::binary_search(basic_rows_.begin(), basic_rows_.end(),
                                        labels.row[static_cast<std::size_t>(i)])) {
        candidates.push_back(sc);
      }
    }
  }

  bool warm_used = false;
  LpSolution sol = eng.run(has_basis_ ? &candidates : nullptr, &stats_, &warm_used);

  if (sol.status == LpStatus::kOptimal) {
    basic_vars_.clear();
    basic_rows_.clear();
    // Prefer the canonical extract basis so the saved context state is a
    // pure function of the LP — path-independence then carries across the
    // whole event stream, not just one solve.
    const std::vector<int>& saved = eng.canonical_extract_basis().empty()
                                        ? eng.basis()
                                        : eng.canonical_extract_basis();
    for (const int j : saved) {
      if (j < eng.n_struct()) {
        basic_vars_.push_back(labels.var[static_cast<std::size_t>(j)]);
      } else if (j < eng.art_first()) {
        basic_rows_.push_back(
            labels.row[static_cast<std::size_t>(eng.row_of_slack_col(j))]);
      }
      // Basic artificials (redundant rows) are not remembered; the next
      // crash re-fills uncovered rows with artificials anyway.
    }
    std::sort(basic_vars_.begin(), basic_vars_.end());
    std::sort(basic_rows_.begin(), basic_rows_.end());
    has_basis_ = true;
  } else {
    clear();
  }
  return sol;
}

void LpContext::clear() {
  has_basis_ = false;
  basic_vars_.clear();
  basic_rows_.clear();
}

LpSolution solve_revised(const LpProblem& lp, const SimplexOptions& opts) {
  RevisedEngine eng(lp, opts);
  RevisedStats stats;
  bool warm_used = false;
  return eng.run(nullptr, &stats, &warm_used);
}

}  // namespace hadar::solver
