/* Compiled SGD inner loops for the "cext" kernel backend.
 *
 * Every function mirrors the reference Python core
 * (src/repro/linalg/backends/list_backend.py::sgd_core) operation for
 * operation: the equation-(11) step schedule s = alpha / (1 + beta * t^1.5)
 * with the per-rating counter incremented in place, an in-order scalar dot
 * product for the prediction, and the simultaneous update
 *
 *     w[d] <- (1 - s*lambda) * w_old[d] - s*g * h[d]
 *     h[d] <- (1 - s*lambda) * h[d]     - s*g * w_old[d]
 *
 * computed from the OLD row values, where g is the bound loss's
 * dloss/dprediction (loss_gradient; p - a for the square loss).  The
 * build deliberately disables floating-point contraction
 * (-ffp-contract=off) so results stay per-operation IEEE-identical to
 * the interpreted reference; the cross-backend equivalence suite pins
 * this file against it bit for bit, under every loss C knows.
 *
 * This file is written once and compiled twice (cext_build.py): a plain
 * build and, on x86, one with -mavx2 -mno-fma, each under its own
 * NOMAD_VARIANT name.  Everything here is static except that build's
 * nomad_variant table (nomad_kernels.h); nomad_module.c links both
 * builds and picks one table when it loads.
 *
 * The hot entry point is process_tokens over a nomad_bound (filled once
 * by the module's Kernels.bind, loss included: the column loop reads the
 * bound loss id once per column).  Three things make it faster than the
 * loop it is defined as, and none changes a bit of the result:
 *
 *   - Step memo.  The step and decay of a rating depend only on its
 *     counter, and the ratings of a column almost always share one, so
 *     the libm pow() is called only when a counter differs from the
 *     previous rating's.  The value used is the one pow() returned for
 *     that counter; no table, no state outside the call.
 *   - Conflict-order pairing (NOMAD section 4.3).  Updates that share
 *     neither a w row nor an h row commute, so a burst runs two columns
 *     A, B at a time through one loop with two independent dot-product
 *     chains.  B's rating of user u runs only once A's cursor has passed
 *     u, which is decidable from the cursors alone when users ascend
 *     strictly inside every column (nomad_bound.ascending, observed at
 *     bind) and the bound loss is the square loss; otherwise the
 *     burst runs column by column.  Every w row and every h row
 *     therefore sees its updates in burst order.
 *   - A 4-wide apply.  In the AVX2 build the compiler runs the update
 *     loops four lanes at a time.  Each lane computes exactly the scalar
 *     expression for its own d (a multiply, a multiply, a subtract, each
 *     rounded once), so the lanes are the scalar loop's operations side
 *     by side.  -mno-fma and -ffp-contract=off keep a multiply and the
 *     subtract that follows it from fusing into one rounding, and no
 *     -ffast-math means the dot product is never reassociated into
 *     vector partial sums: it stays one in-order scalar chain.
 *
 * All three are IEEE-identical to the serial loop because no sum is
 * reassociated (each dot product is still one in-order chain), nothing
 * is contracted, and the per-row order of updates is preserved.
 *
 * All matrices are dense row-major float64 with row stride k; index
 * arrays are int64.  Functions return the number of updates applied.
 */

#include <math.h>
#include <stdint.h>

#include "nomad_kernels.h"

#ifndef NOMAD_VARIANT
#define NOMAD_VARIANT base
#endif

/* dloss/dprediction of a separable loss (NOMAD section 6).  Ids are
 * assigned by cext_backend._loss_id and bound into nomad_bound:
 * 0 = square, 1 = absolute, 2 = huber(param = delta).  A loss without
 * an id never reaches C: bind_tokens hands it the interpreted kernel. */
static inline double loss_gradient(int64_t loss_id, double param, double rating,
                            double prediction) {
    double residual = prediction - rating;
    switch (loss_id) {
    case 1: /* absolute: subgradient at zero residual is 0 */
        if (residual > 0.0)
            return 1.0;
        if (residual < 0.0)
            return -1.0;
        return 0.0;
    case 2: /* huber: clip the residual at +-delta */
        if (residual > param)
            return param;
        if (residual < -param)
            return -param;
        return residual;
    default: /* square */
        return residual;
    }
}

/* The equation-(11) step of a rating whose counter is t, and the decay
 * 1 - step * lambda that goes with it.  Callers keep the last one and
 * come back here only when a rating's counter differs from the previous
 * rating's — the one place this file calls pow(). */
typedef struct {
    int64_t t;
    double step, decay;
} eq11;

static inline eq11 eq11_at(int64_t t, double alpha, double beta,
                           double lambda_) {
    eq11 s;
    s.t = t;
    s.step = alpha / (1.0 + beta * pow((double)t, 1.5));
    s.decay = 1.0 - s.step * lambda_;
    return s;
}

static inline double dot(const double *w_row, const double *h_row,
                         int64_t k) {
    double prediction = 0.0;
    for (int64_t d = 0; d < k; d++)
        prediction += w_row[d] * h_row[d];
    return prediction;
}

static inline void apply(double *w_row, double *h_row, int64_t k,
                         double decay, double scaled_error) {
    for (int64_t d = 0; d < k; d++) {
        double w_value = w_row[d];
        w_row[d] = decay * w_value - scaled_error * h_row[d];
        h_row[d] = decay * h_row[d] - scaled_error * w_value;
    }
}

/* The column loop (NOMAD token work): all local ratings of one item
 * against a shared h_col vector, scheduled step, under one loss. */
static inline int64_t column(double *w, double *h_col, const int64_t *users,
                             const double *ratings, int64_t *counts,
                             int64_t n, int64_t k, double alpha, double beta,
                             double lambda_, int64_t loss_id,
                             double loss_param) {
    if (n <= 0)
        return 0;
    eq11 s = eq11_at(counts[0], alpha, beta, lambda_);
    for (int64_t i = 0; i < n; i++) {
        double *w_row = w + users[i] * k;
        int64_t t = counts[i];
        if (t != s.t)
            s = eq11_at(t, alpha, beta, lambda_);
        counts[i] = t + 1;
        double gradient = loss_gradient(loss_id, loss_param, ratings[i],
                                        dot(w_row, h_col, k));
        apply(w_row, h_col, k, s.decay, s.step * gradient);
    }
    return n;
}

/* One token: item names a column of the shard (users/ratings/counts
 * from indptr[item] to ends[item]) and a row of h, run under the bound
 * loss.  Returns -1, having applied nothing, if the id is outside
 * [0, n_items). */
static int64_t process_token(const nomad_bound *b, int64_t item) {
    if (item < 0 || item >= b->n_items)
        return -1;
    int64_t lo = b->indptr[item];
    return column(b->w, b->h + item * b->k, b->users + lo, b->ratings + lo,
                  b->counts + lo, b->ends[item] - lo, b->k, b->alpha,
                  b->beta, b->lambda_, b->loss_id, b->loss_param);
}

/* Two distinct tokens of a shard whose columns ascend, under the square
 * loss, interleaved in conflict order: the result is that of item_a's
 * column followed by
 * item_b's.  B's next rating runs beside A's next one when its user is
 * below A's (A is past that w row, or never touches it), and otherwise
 * waits while A advances alone; whichever column is left when the other
 * ends runs serially.  The paired step reads four distinct rows — two
 * different users, two different items — hence the restricts. */
static int64_t process_token_pair(const nomad_bound *b, int64_t item_a,
                                  int64_t item_b) {
    const int64_t k = b->k;
    const double alpha = b->alpha, beta = b->beta, lambda_ = b->lambda_;
    int64_t pa = b->indptr[item_a], end_a = b->ends[item_a];
    int64_t pb = b->indptr[item_b], end_b = b->ends[item_b];
    const int64_t applied = (end_a - pa) + (end_b - pb);
    const int64_t *users = b->users;
    const double *ratings = b->ratings;
    int64_t *counts = b->counts;
    double *restrict h_a = b->h + item_a * k;
    double *restrict h_b = b->h + item_b * k;

    if (pa < end_a && pb < end_b) {
        eq11 sa = eq11_at(counts[pa], alpha, beta, lambda_);
        eq11 sb = eq11_at(counts[pb], alpha, beta, lambda_);
        while (pa < end_a && pb < end_b) {
            double *restrict w_a = b->w + users[pa] * k;
            int64_t ta = counts[pa];
            if (ta != sa.t)
                sa = eq11_at(ta, alpha, beta, lambda_);
            counts[pa] = ta + 1;
            if (users[pb] >= users[pa]) {
                apply(w_a, h_a, k, sa.decay,
                      sa.step * (dot(w_a, h_a, k) - ratings[pa]));
                pa++;
                continue;
            }
            double *restrict w_b = b->w + users[pb] * k;
            int64_t tb = counts[pb];
            if (tb != sb.t)
                sb = eq11_at(tb, alpha, beta, lambda_);
            counts[pb] = tb + 1;
            double prediction_a = 0.0, prediction_b = 0.0;
            for (int64_t d = 0; d < k; d++) {
                prediction_a += w_a[d] * h_a[d];
                prediction_b += w_b[d] * h_b[d];
            }
            double error_a = sa.step * (prediction_a - ratings[pa]);
            double error_b = sb.step * (prediction_b - ratings[pb]);
            for (int64_t d = 0; d < k; d++) {
                double wa_value = w_a[d], wb_value = w_b[d];
                w_a[d] = sa.decay * wa_value - error_a * h_a[d];
                h_a[d] = sa.decay * h_a[d] - error_a * wa_value;
                w_b[d] = sb.decay * wb_value - error_b * h_b[d];
                h_b[d] = sb.decay * h_b[d] - error_b * wb_value;
            }
            pa++;
            pb++;
        }
    }
    column(b->w, h_a, users + pa, ratings + pa, counts + pa, end_a - pa, k,
           alpha, beta, lambda_, 0, 0.0);
    column(b->w, h_b, users + pb, ratings + pb, counts + pb, end_b - pb, k,
           alpha, beta, lambda_, 0, 0.0);
    return applied;
}

/* Token burst: a burst is just item ids.  Tokens run in order — a
 * repeated id is simply visited twice — so the result is identical to
 * looping process_token; over an ascending shard under the square
 * loss they run two at a time (see process_token_pair), an adjacent
 * repeat and the odd one out alone.  Returns -1, having applied
 * nothing, if any id is outside [0, n_items). */
static int64_t process_tokens(const nomad_bound *b, const int64_t *items,
                              int64_t n_tokens) {
    int64_t applied = 0;
    for (int64_t t = 0; t < n_tokens; t++)
        if (items[t] < 0 || items[t] >= b->n_items)
            return -1;
    const int pairing = b->ascending && b->loss_id == 0;
    int64_t t = 0;
    while (t < n_tokens) {
        if (pairing && t + 1 < n_tokens && items[t] != items[t + 1]) {
            applied += process_token_pair(b, items[t], items[t + 1]);
            t += 2;
        } else {
            applied += process_token(b, items[t]);
            t += 1;
        }
    }
    return applied;
}

/* Entries variant: an arbitrary list of observed (i, j) entries visited in
 * a given order.  scheduled != 0 uses the equation-(11) per-rating counter
 * schedule (alpha/beta, counts mutated); scheduled == 0 uses the single
 * constant step (DSGD/DSGD++ epochs) and never touches counts. */
static int64_t process_entries(double *w, double *h, const int64_t *rows,
                               const int64_t *cols, const double *ratings,
                               int64_t *counts, const int64_t *order,
                               int64_t n, int64_t k, double alpha,
                               double beta, double lambda_, double step,
                               int64_t scheduled) {
    if (n <= 0)
        return 0;
    eq11 s = {0, step, 1.0 - step * lambda_};
    if (scheduled)
        s = eq11_at(counts[order[0]], alpha, beta, lambda_);
    for (int64_t i = 0; i < n; i++) {
        int64_t idx = order[i];
        double *w_row = w + rows[idx] * k;
        double *h_row = h + cols[idx] * k;
        if (scheduled) {
            int64_t t = counts[idx];
            if (t != s.t)
                s = eq11_at(t, alpha, beta, lambda_);
            counts[idx] = t + 1;
        }
        apply(w_row, h_row, k, s.decay,
              s.step * (dot(w_row, h_row, k) - ratings[idx]));
    }
    return n;
}

/* One column under the square loss: the legacy per-column entry. */
static int64_t process_column(double *w, double *h_col, const int64_t *users,
                              const double *ratings, int64_t *counts,
                              int64_t n, int64_t k, double alpha,
                              double beta, double lambda_) {
    return column(w, h_col, users, ratings, counts, n, k, alpha, beta,
                  lambda_, 0, 0.0);
}

#define NOMAD_JOIN(a, b) a##b
#define NOMAD_TABLE(variant) NOMAD_JOIN(nomad_variant_, variant)
#define NOMAD_QUOTE(x) #x
#define NOMAD_NAME(variant) NOMAD_QUOTE(variant)

const nomad_variant NOMAD_TABLE(NOMAD_VARIANT) = {
    NOMAD_NAME(NOMAD_VARIANT), process_tokens, process_token, process_column,
    process_entries,
};
