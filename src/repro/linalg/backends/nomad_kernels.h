/* The interface between the SGD kernels (nomad_kernels.c, compiled once
 * per instruction-set variant) and the Python extension module that
 * calls them (nomad_module.c).
 *
 * Each build of nomad_kernels.c exports exactly one symbol: a
 * nomad_variant table named after the NOMAD_VARIANT it was compiled
 * with (nomad_variant_base, nomad_variant_avx2).  The module picks one
 * table at load and calls every kernel through it. */

#ifndef NOMAD_KERNELS_H
#define NOMAD_KERNELS_H

#include <stdint.h>

/* A worker's factors and CSC shard, bound once (the module's
 * TokenKernel owns it).  Column j is users[indptr[j]:ends[j]]; for a
 * plain CSC ends is indptr + 1, so it reads the memory indptr[j + 1]
 * names.  ascending is nonzero when users rise strictly inside every
 * column: what process_tokens needs to pair columns.  loss_id and
 * loss_param name the loss every column runs under (see loss_gradient
 * in nomad_kernels.c). */
typedef struct {
    double *w, *h;
    const int64_t *indptr, *ends, *users;
    const double *ratings;
    int64_t *counts;
    int64_t n_items, k, ascending, loss_id;
    double alpha, beta, lambda_, loss_param;
} nomad_bound;

/* One build's kernels.  Each returns the number of updates applied;
 * process_token and process_tokens return -1, having applied nothing,
 * for an item id outside [0, n_items). */
typedef struct {
    const char *name;
    int64_t (*process_tokens)(const nomad_bound *b, const int64_t *items,
                              int64_t n_tokens);
    int64_t (*process_token)(const nomad_bound *b, int64_t item);
    int64_t (*process_column)(double *w, double *h_col,
                              const int64_t *users, const double *ratings,
                              int64_t *counts, int64_t n, int64_t k,
                              double alpha, double beta, double lambda_);
    int64_t (*process_entries)(double *w, double *h, const int64_t *rows,
                               const int64_t *cols, const double *ratings,
                               int64_t *counts, const int64_t *order,
                               int64_t n, int64_t k, double alpha,
                               double beta, double lambda_, double step,
                               int64_t scheduled);
} nomad_variant;

extern const nomad_variant nomad_variant_base;
#ifdef NOMAD_HAVE_AVX2
extern const nomad_variant nomad_variant_avx2;
#endif

#endif /* NOMAD_KERNELS_H */
