/* The Python face of the compiled kernels: the extension module the
 * "cext" backend loads (cext_build.py links it with every build of
 * nomad_kernels.c into one shared object).
 *
 * The module picks one nomad_variant when it loads — the AVX2 build
 * where it was linked in and the CPU reports AVX2, else the plain one —
 * and exposes it as `kernels`, a Kernels object:
 *
 *   kernels.bind(w, h, indptr, users, ratings, counts, loss_id,
 *                alpha, beta, lambda_, loss_param[, ends]) -> TokenKernel
 *   kernels.process_column(w, h_col, users, ratings, counts,
 *                          alpha, beta, lambda_) -> int
 *   kernels.process_entries(w, h, rows, cols, ratings, counts, order,
 *                           alpha, beta, lambda_, step, scheduled) -> int
 *
 * and a TokenKernel has the two hot calls, process_token(item) (METH_O,
 * the GIL held) and process_tokens(items) (METH_O over the int64 buffer,
 * the GIL released for the burst).  Arrays arrive through the buffer
 * protocol: C-contiguous, 8-byte items of the kind each argument needs.
 * Shapes, ids and user rows are checked here, so no call can reach
 * outside an array.  `_variants` maps the name of every linked build
 * this CPU can run to its Kernels object, so the tests can hold the
 * builds to each other's bits; `variant` names the one picked.
 *
 * `MTStream(random_obj.getstate())` is CPython's Mersenne Twister, built
 * from a random.Random's state and drawing exactly what that object
 * would: randrange(n), randbelow_many(n, count) -> int64[count],
 * shuffle(int64 buffer) and getstate().
 *
 * `Schedule` is NomadSimulation's discrete-event loop (heap, finish and
 * deliver handlers, ownership ledger, routing policies, §3.4 tours and
 * jitter) over one bound TokenKernel per worker, drawing on two
 * MTStreams; see its section below. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <math.h>

#include "nomad_kernels.h"

#if defined(NOMAD_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
#define NOMAD_DISPATCH_AVX2 1
#endif

/* ------------------------------------------------------------------ */
/* Buffers                                                             */
/* ------------------------------------------------------------------ */

/* A C-contiguous buffer of 8-byte items of kind 'f' (float64) or 'i'
 * (int64), writable when asked.  On failure sets an exception, returns
 * -1 and leaves nothing to release. */
static int get_array(PyObject *obj, Py_buffer *view, char kind, int writable,
                     const char *what) {
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (writable)
        flags |= PyBUF_WRITABLE;
    int ok = PyObject_GetBuffer(obj, view, flags) == 0;
    if (ok) {
        const char *format = view->format ? view->format : "B";
        if (*format == '<' || *format == '=' || *format == '@')
            format++;
        ok = view->itemsize == 8 && format[0] != '\0' && format[1] == '\0' &&
             (kind == 'f' ? format[0] == 'd'
                          : (format[0] == 'q' || format[0] == 'l'));
        if (!ok)
            PyBuffer_Release(view);
    }
    if (!ok) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError, "%s must be a %sC-contiguous %s array",
                     what, writable ? "writable " : "",
                     kind == 'f' ? "float64" : "int64");
        return -1;
    }
    return 0;
}

static Py_ssize_t length(const Py_buffer *view) {
    return view->len / view->itemsize;
}

/* The row length of a 2-d factor matrix, or -1 with an exception. */
static Py_ssize_t row_length(const Py_buffer *view, const char *what) {
    if (view->ndim != 2) {
        PyErr_Format(PyExc_ValueError, "%s must be 2-d", what);
        return -1;
    }
    return view->shape[1];
}

/* Whether every value of ids lies in [0, bound). */
static int in_range(const int64_t *ids, Py_ssize_t n, int64_t bound) {
    for (Py_ssize_t i = 0; i < n; i++)
        if (ids[i] < 0 || ids[i] >= bound)
            return 0;
    return 1;
}

static void release_all(Py_buffer *views, int n) {
    for (int i = 0; i < n; i++)
        PyBuffer_Release(&views[i]);
}

/* ------------------------------------------------------------------ */
/* TokenKernel                                                         */
/* ------------------------------------------------------------------ */

enum { N_BOUND = 7 }; /* w, h, indptr, users, ratings, counts, ends */

typedef struct {
    PyObject_HEAD
    const nomad_variant *variant;
    nomad_bound bound;
    Py_buffer views[N_BOUND]; /* held for the kernel's lifetime */
    int n_views;
} TokenKernelObject;

static void token_kernel_dealloc(TokenKernelObject *self) {
    release_all(self->views, self->n_views);
    if (self->bound.mark != NULL)
        PyMem_Free(self->bound.mark - 1);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *out_of_range(const nomad_bound *b) {
    PyErr_Format(PyExc_IndexError, "token item id outside [0, %lld)",
                 (long long)b->n_items);
    return NULL;
}

static PyObject *token_kernel_process_token(TokenKernelObject *self,
                                            PyObject *arg) {
    long long item = PyLong_AsLongLong(arg);
    if (item == -1 && PyErr_Occurred())
        return NULL;
    int64_t applied = self->variant->process_token(&self->bound, item);
    if (applied < 0)
        return out_of_range(&self->bound);
    return PyLong_FromLongLong(applied);
}

static PyObject *token_kernel_process_tokens(TokenKernelObject *self,
                                             PyObject *arg) {
    Py_buffer items;
    if (get_array(arg, &items, 'i', 0, "items") < 0)
        return NULL;
    int64_t applied;
    Py_BEGIN_ALLOW_THREADS
    applied = self->variant->process_tokens(&self->bound, items.buf,
                                            length(&items));
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&items);
    if (applied < 0)
        return out_of_range(&self->bound);
    return PyLong_FromLongLong(applied);
}

static PyMethodDef token_kernel_methods[] = {
    {"process_token", (PyCFunction)token_kernel_process_token, METH_O,
     "Run one token's column; returns the updates applied."},
    {"process_tokens", (PyCFunction)token_kernel_process_tokens, METH_O,
     "Run a burst of item ids (an int64 buffer) in order, without the "
     "GIL; returns the updates applied."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject TokenKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.linalg.backends._nomad.TokenKernel",
    .tp_basicsize = sizeof(TokenKernelObject),
    .tp_dealloc = (destructor)token_kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A worker's factors and CSC shard, bound by Kernels.bind.",
    .tp_methods = token_kernel_methods,
};

/* ------------------------------------------------------------------ */
/* Kernels: one build's entry points                                   */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    const nomad_variant *variant;
} KernelsObject;

/* Whether every column's users lie in [0, n_rows). */
static int columns_in_range(const int64_t *indptr, const int64_t *ends,
                            Py_ssize_t n_items, const int64_t *users,
                            int64_t n_rows) {
    for (Py_ssize_t j = 0; j < n_items; j++)
        if (!in_range(users + indptr[j], ends[j] - indptr[j], n_rows))
            return 0;
    return 1;
}

static PyObject *kernels_bind(KernelsObject *self, PyObject *args) {
    PyObject *arrays[N_BOUND];
    arrays[N_BOUND - 1] = Py_None;
    long long loss_id;
    double alpha, beta, lambda_, loss_param;
    if (!PyArg_ParseTuple(args, "OOOOOOLdddd|O:bind", &arrays[0], &arrays[1],
                          &arrays[2], &arrays[3], &arrays[4], &arrays[5],
                          &loss_id, &alpha, &beta, &lambda_, &loss_param,
                          &arrays[N_BOUND - 1]))
        return NULL;
    static const char kinds[N_BOUND] = {'f', 'f', 'i', 'i', 'f', 'i', 'i'};
    static const int writable[N_BOUND] = {1, 1, 0, 0, 0, 1, 0};
    static const char *names[N_BOUND] = {"w", "h", "indptr", "users",
                                         "ratings", "counts", "ends"};
    /* Without ends the shard is a plain CSC and ends is indptr + 1. */
    const int with_ends = arrays[N_BOUND - 1] != Py_None;
    const int n_arrays = with_ends ? N_BOUND : N_BOUND - 1;
    TokenKernelObject *kernel = PyObject_New(TokenKernelObject,
                                             &TokenKernelType);
    if (kernel == NULL)
        return NULL;
    kernel->bound.mark = NULL;
    Py_buffer *v = kernel->views;
    for (kernel->n_views = 0; kernel->n_views < n_arrays; kernel->n_views++) {
        int i = kernel->n_views;
        if (get_array(arrays[i], &v[i], kinds[i], writable[i], names[i]) < 0)
            goto fail;
    }
    Py_ssize_t k = row_length(&v[0], "w");
    if (k < 0 || row_length(&v[1], "h") < 0)
        goto fail;
    Py_ssize_t n_items = v[1].shape[0], nnz = length(&v[3]);
    const int64_t *indptr = v[2].buf;
    const int64_t *ends = with_ends ? v[N_BOUND - 1].buf : indptr + 1;
    int csc = v[1].shape[1] == k && length(&v[2]) == n_items + 1 &&
              length(&v[4]) == nnz && length(&v[5]) == nnz;
    if (with_ends) {
        /* Columns with slack: each span lies inside the arrays. */
        csc = csc && length(&v[N_BOUND - 1]) == n_items;
        for (Py_ssize_t j = 0; csc && j < n_items; j++)
            csc = 0 <= indptr[j] && indptr[j] <= ends[j] && ends[j] <= nnz;
    } else {
        csc = csc && indptr[0] == 0 && indptr[n_items] == nnz;
        for (Py_ssize_t j = 0; csc && j < n_items; j++)
            csc = indptr[j] <= indptr[j + 1];
    }
    if (!csc || !columns_in_range(indptr, ends, n_items, v[3].buf,
                                  v[0].shape[0])) {
        PyErr_SetString(PyExc_ValueError,
                        "bind_tokens: shard arrays do not describe a CSC "
                        "over w/h");
        goto fail;
    }
    /* The pairing walk's stamps: mark[-1], then one per row of w, all
     * zero here; held for the kernel's lifetime, so no call allocates. */
    int32_t *mark = PyMem_Calloc(v[0].shape[0] + 1, sizeof(int32_t));
    if (mark == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    kernel->variant = self->variant;
    kernel->bound = (nomad_bound){
        v[0].buf, v[1].buf, indptr, ends, v[3].buf, v[4].buf, v[5].buf,
        mark + 1, v[0].shape[0], n_items, k, loss_id, alpha, beta, lambda_,
        loss_param,
    };
    return (PyObject *)kernel;

fail:
    Py_DECREF(kernel);
    return NULL;
}

static PyObject *kernels_process_column(KernelsObject *self, PyObject *args) {
    PyObject *arrays[5];
    double alpha, beta, lambda_;
    if (!PyArg_ParseTuple(args, "OOOOOddd:process_column", &arrays[0],
                          &arrays[1], &arrays[2], &arrays[3], &arrays[4],
                          &alpha, &beta, &lambda_))
        return NULL;
    static const char kinds[5] = {'f', 'f', 'i', 'f', 'i'};
    static const int writable[5] = {1, 1, 0, 0, 1};
    static const char *names[5] = {"w", "h_col", "users", "ratings",
                                   "counts"};
    Py_buffer v[5];
    int held = 0;
    for (; held < 5; held++)
        if (get_array(arrays[held], &v[held], kinds[held], writable[held],
                      names[held]) < 0)
            goto fail;
    Py_ssize_t k = length(&v[1]), n = length(&v[2]);
    if (length(&v[0]) % (k ? k : 1) != 0 || length(&v[3]) != n ||
        length(&v[4]) != n) {
        PyErr_SetString(PyExc_ValueError,
                        "process_column: array lengths disagree");
        goto fail;
    }
    if (!in_range(v[2].buf, n, k ? length(&v[0]) / k : 0)) {
        PyErr_SetString(PyExc_IndexError,
                        "process_column: user row outside w");
        goto fail;
    }
    int64_t applied = self->variant->process_column(
        v[0].buf, v[1].buf, v[2].buf, v[3].buf, v[4].buf, n, k, alpha, beta,
        lambda_);
    release_all(v, held);
    return PyLong_FromLongLong(applied);

fail:
    release_all(v, held);
    return NULL;
}

static PyObject *kernels_process_entries(KernelsObject *self,
                                         PyObject *args) {
    PyObject *arrays[7];
    double alpha, beta, lambda_, step;
    int scheduled;
    if (!PyArg_ParseTuple(args, "OOOOOOOddddp:process_entries", &arrays[0],
                          &arrays[1], &arrays[2], &arrays[3], &arrays[4],
                          &arrays[5], &arrays[6], &alpha, &beta, &lambda_,
                          &step, &scheduled))
        return NULL;
    /* counts is read only when scheduled: any int64 buffer will do
     * otherwise. */
    static const char kinds[7] = {'f', 'f', 'i', 'i', 'f', 'i', 'i'};
    static const int writable[7] = {1, 1, 0, 0, 0, 1, 0};
    static const char *names[7] = {"w", "h", "rows", "cols",
                                   "ratings", "counts", "order"};
    Py_buffer v[7];
    int held = 0;
    for (; held < 7; held++)
        if (get_array(arrays[held], &v[held], kinds[held], writable[held],
                      names[held]) < 0)
            goto fail;
    Py_ssize_t k = row_length(&v[0], "w");
    if (k < 0 || row_length(&v[1], "h") < 0)
        goto fail;
    Py_ssize_t nnz = length(&v[2]), n = length(&v[6]);
    if (v[1].shape[1] != k || length(&v[3]) != nnz || length(&v[4]) != nnz ||
        (scheduled && length(&v[5]) != nnz)) {
        PyErr_SetString(PyExc_ValueError,
                        "process_entries: array lengths disagree");
        goto fail;
    }
    if (!in_range(v[6].buf, n, nnz) || !in_range(v[2].buf, nnz, v[0].shape[0])
        || !in_range(v[3].buf, nnz, v[1].shape[0])) {
        PyErr_SetString(PyExc_IndexError,
                        "process_entries: entry outside w/h or order "
                        "outside the entries");
        goto fail;
    }
    int64_t applied;
    Py_BEGIN_ALLOW_THREADS
    applied = self->variant->process_entries(
        v[0].buf, v[1].buf, v[2].buf, v[3].buf, v[4].buf, v[5].buf,
        v[6].buf, n, k, alpha, beta, lambda_, step, scheduled);
    Py_END_ALLOW_THREADS
    release_all(v, held);
    return PyLong_FromLongLong(applied);

fail:
    release_all(v, held);
    return NULL;
}

static PyMethodDef kernels_methods[] = {
    {"bind", (PyCFunction)kernels_bind, METH_VARARGS,
     "bind(w, h, indptr, users, ratings, counts, loss_id, alpha, beta, "
     "lambda_, loss_param[, ends]) -> TokenKernel: column j is "
     "users[indptr[j]:ends[j]], ends defaulting to indptr[1:]"},
    {"process_column", (PyCFunction)kernels_process_column, METH_VARARGS,
     "process_column(w, h_col, users, ratings, counts, alpha, beta, "
     "lambda_) -> updates (square loss)"},
    {"process_entries", (PyCFunction)kernels_process_entries, METH_VARARGS,
     "process_entries(w, h, rows, cols, ratings, counts, order, alpha, "
     "beta, lambda_, step, scheduled) -> updates"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.linalg.backends._nomad.Kernels",
    .tp_basicsize = sizeof(KernelsObject),
    .tp_dealloc = (destructor)PyObject_Del,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One build of the SGD kernels.",
    .tp_methods = kernels_methods,
};

static PyObject *new_kernels(const nomad_variant *variant) {
    KernelsObject *kernels = PyObject_New(KernelsObject, &KernelsType);
    if (kernels != NULL)
        kernels->variant = variant;
    return (PyObject *)kernels;
}

/* ------------------------------------------------------------------ */
/* MTStream: CPython's random.Random, draw for draw                    */
/* ------------------------------------------------------------------ */

/* MT19937 as CPython's _randommodule.c runs it, started from a
 * random.Random's getstate().  Every draw is _randbelow(n) for n in
 * [1, 2**32): getrandbits(n.bit_length()) — one tempered word shifted
 * right by 32 - bit_length — until the value falls below n, which is
 * what random.py's randrange and shuffle call, in the order they call
 * it.  The interpreted reference these are held to is the
 * list backend's stream (list_backend.py). */

enum { MT_N = 624, MT_M = 397, MT_STATE_VERSION = 3 };

typedef struct {
    PyObject_HEAD
    uint32_t mt[MT_N];
    int index;
    int has_gauss_next; /* random.Random's gauss_next: None when 0 */
    double gauss_next;
} MTStreamObject;

/* The next tempered word.  The read position is the caller's local
 * (stored back into the object once per call), so a bulk draw keeps it
 * in a register. */
static inline uint32_t mt_next(uint32_t *mt, int *index) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (*index >= MT_N) {
        /* The next block of words, in place, split where the indices
         * wrap (one loop with `% MT_N` ran bulk draws 2x slower). */
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1U];
        *index = 0;
    }
    y = mt[(*index)++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* random.Random._randbelow(n), 1 <= n < 2**32. */
static inline uint32_t mt_below(uint32_t *mt, int *index, uint32_t n) {
    int shift = __builtin_clz(n); /* 32 - n.bit_length() */
    uint32_t r = mt_next(mt, index) >> shift;
    while (r >= n)
        r = mt_next(mt, index) >> shift;
    return r;
}

static const int64_t MT_BOUND = (int64_t)1 << 32;

static int out_of_bound(void) {
    PyErr_SetString(PyExc_ValueError, "draw bound must lie in [1, 2**32)");
    return -1;
}

/* An integer n in [1, 2**32) into *n; -1 with an exception otherwise. */
static int draw_bound(PyObject *arg, uint32_t *n) {
    PyObject *index = PyNumber_Index(arg);
    if (index == NULL)
        return -1;
    int overflow;
    long long value = PyLong_AsLongLongAndOverflow(index, &overflow);
    Py_DECREF(index);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (overflow || value < 1 || value >= MT_BOUND)
        return out_of_bound();
    *n = (uint32_t)value;
    return 0;
}

static PyObject *mt_stream_new(PyTypeObject *type, PyObject *args,
                               PyObject *kwds) {
    static char *kwlist[] = {"state", NULL};
    PyObject *state;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:MTStream", kwlist,
                                     &state))
        return NULL;
    PyObject *words = NULL;
    long version = -1;
    if (PyTuple_Check(state) && PyTuple_GET_SIZE(state) == 3) {
        version = PyLong_AsLong(PyTuple_GET_ITEM(state, 0));
        words = PyTuple_GET_ITEM(state, 1);
    }
    if (PyErr_Occurred() || version != MT_STATE_VERSION ||
        !PyTuple_Check(words) || PyTuple_GET_SIZE(words) != MT_N + 1) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError,
                        "state must be a random.Random getstate() "
                        "(version 3)");
        return NULL;
    }
    MTStreamObject *self = (MTStreamObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    for (int i = 0; i <= MT_N; i++) {
        unsigned long long word =
            PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(words, i));
        if ((word == (unsigned long long)-1 && PyErr_Occurred()) ||
            word > (i < MT_N ? 0xffffffffULL : (unsigned long long)MT_N)) {
            PyErr_Clear();
            PyErr_SetString(PyExc_ValueError,
                            "state holds a word or index out of range");
            Py_DECREF(self);
            return NULL;
        }
        if (i < MT_N)
            self->mt[i] = (uint32_t)word;
        else
            self->index = (int)word;
    }
    PyObject *gauss_next = PyTuple_GET_ITEM(state, 2);
    self->has_gauss_next = gauss_next != Py_None;
    if (self->has_gauss_next) {
        self->gauss_next = PyFloat_AsDouble(gauss_next);
        if (self->gauss_next == -1.0 && PyErr_Occurred()) {
            Py_DECREF(self);
            return NULL;
        }
    }
    return (PyObject *)self;
}

static void mt_stream_dealloc(MTStreamObject *self) {
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *mt_stream_randrange(MTStreamObject *self, PyObject *arg) {
    uint32_t n;
    if (draw_bound(arg, &n) < 0)
        return NULL;
    int index = self->index;
    uint32_t r = mt_below(self->mt, &index, n);
    self->index = index;
    return PyLong_FromUnsignedLong(r);
}

/* numpy.empty(count, "int64"): the one array this module makes. */
static PyObject *new_int64_array(Py_ssize_t count) {
    static PyObject *empty = NULL; /* held for the process's lifetime */
    if (empty == NULL) {
        PyObject *numpy = PyImport_ImportModule("numpy");
        if (numpy == NULL)
            return NULL;
        empty = PyObject_GetAttrString(numpy, "empty");
        Py_DECREF(numpy);
        if (empty == NULL)
            return NULL;
    }
    return PyObject_CallFunction(empty, "ns", count, "int64");
}

static PyObject *mt_stream_randbelow_many(MTStreamObject *self,
                                          PyObject *args) {
    PyObject *bound;
    Py_ssize_t count;
    uint32_t n;
    if (!PyArg_ParseTuple(args, "On:randbelow_many", &bound, &count) ||
        draw_bound(bound, &n) < 0)
        return NULL;
    if (count < 0) {
        PyErr_SetString(PyExc_ValueError, "count must be >= 0");
        return NULL;
    }
    PyObject *out = new_int64_array(count);
    Py_buffer view;
    if (out == NULL || get_array(out, &view, 'i', 1, "out") < 0) {
        Py_XDECREF(out);
        return NULL;
    }
    /* mt_below's rejection loop without its branch: every word lands in
     * the next slot, which only a word below n moves past. */
    int64_t *draws = view.buf;
    int index = self->index, shift = __builtin_clz(n);
    for (Py_ssize_t t = 0; t < count;) {
        uint32_t r = mt_next(self->mt, &index) >> shift;
        draws[t] = r;
        t += r < n;
    }
    self->index = index;
    PyBuffer_Release(&view);
    return out;
}

static PyObject *mt_stream_shuffle(MTStreamObject *self, PyObject *arg) {
    Py_buffer view;
    if (get_array(arg, &view, 'i', 1, "buffer") < 0)
        return NULL;
    int64_t *x = view.buf;
    Py_ssize_t n = length(&view);
    if (n >= MT_BOUND) {
        PyBuffer_Release(&view);
        out_of_bound();
        return NULL;
    }
    /* Fisher-Yates over mt_below(i + 1), its rejection loop without the
     * branch: a rejected word swaps x[i] with itself and keeps i. */
    int index = self->index;
    for (Py_ssize_t i = n - 1; i > 0;) {
        uint32_t bound = (uint32_t)(i + 1);
        uint32_t r = mt_next(self->mt, &index) >> __builtin_clz(bound);
        int accept = r < bound;
        Py_ssize_t j = accept ? (Py_ssize_t)r : i;
        int64_t swap = x[i];
        x[i] = x[j];
        x[j] = swap;
        i -= accept;
    }
    self->index = index;
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyObject *mt_stream_getstate(MTStreamObject *self,
                                    PyObject *Py_UNUSED(ignored)) {
    PyObject *words = PyTuple_New(MT_N + 1);
    if (words == NULL)
        return NULL;
    for (int i = 0; i <= MT_N; i++) {
        PyObject *word = i < MT_N ? PyLong_FromUnsignedLong(self->mt[i])
                                  : PyLong_FromLong(self->index);
        if (word == NULL) {
            Py_DECREF(words);
            return NULL;
        }
        PyTuple_SET_ITEM(words, i, word);
    }
    if (!self->has_gauss_next)
        return Py_BuildValue("(iNO)", MT_STATE_VERSION, words, Py_None);
    return Py_BuildValue("(iNd)", MT_STATE_VERSION, words, self->gauss_next);
}

static PyMethodDef mt_stream_methods[] = {
    {"randrange", (PyCFunction)mt_stream_randrange, METH_O,
     "randrange(n): random.Random.randrange(n), 1 <= n < 2**32."},
    {"randbelow_many", (PyCFunction)mt_stream_randbelow_many, METH_VARARGS,
     "randbelow_many(n, count) -> int64[count]: count randrange(n) draws."},
    {"shuffle", (PyCFunction)mt_stream_shuffle, METH_O,
     "shuffle(buffer): random.Random.shuffle over a writable C-contiguous "
     "int64 buffer, in place."},
    {"getstate", (PyCFunction)mt_stream_getstate, METH_NOARGS,
     "The state in random.Random.getstate()'s format."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject MTStreamType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.linalg.backends._nomad.MTStream",
    .tp_basicsize = sizeof(MTStreamObject),
    .tp_dealloc = (destructor)mt_stream_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "MTStream(state): CPython's Mersenne Twister from a "
              "random.Random's getstate(), drawing what that object "
              "would draw.",
    .tp_methods = mt_stream_methods,
    .tp_new = mt_stream_new,
};

/* ------------------------------------------------------------------ */
/* Schedule: NomadSimulation's event loop                              */
/* ------------------------------------------------------------------ */

/* core/nomad.py's handlers over simulator/engine.py's heap, compiled
 * (the Python ones are the reference this is held to, event for event
 * and draw for draw):
 *
 *   Schedule(kernels, visit_time, cores, local_delay, network_delay,
 *            routing, jitter, sigma, policy, circulate, budget, visits)
 *   start(queues, eval_times)   seed the queues, wake every worker,
 *                               schedule the evaluations
 *   advance(until) -> float | None
 *
 * One heap of (time, seq) keyed events, popped while the earliest is
 * not later than `until`.  A finish runs the visit through its worker's
 * bound TokenKernel, picks the token's next stop (the rest of its §3.4
 * tour, or a machine from the policy and then a fresh tour or one
 * worker), releases it, sends it and starts the worker's next queued
 * token; a delivery acquires, enqueues and wakes.  advance() returns
 * the time of an evaluation event (before a halt) or of the finish that
 * spent the update budget, for the caller to score the model, and None
 * once no event at or before `until` is left.  After a halt, finishes
 * apply nothing and hand their token back to the head of its queue, and
 * evaluations are skipped, as the Python handlers do.
 *
 * The routing draws (policies, tours) come from `routing`, the jitter
 * multipliers exp(sigma * gauss - sigma**2 / 2) from `jitter`: two
 * MTStreams, drawing what random.Random's randrange, sample and gauss
 * would. */

enum { EVENT_FINISH, EVENT_DELIVER, EVENT_EVALUATE };
enum { POLICY_UNIFORM, POLICY_LEAST_QUEUE, POLICY_POWER_OF_TWO };
enum { IN_FLIGHT = -1, NO_ITEM = -1 };

/* random.Random.sample's set-size estimate for k = 2: a population at
 * most this large is sampled from a pool, a larger one by rejection. */
enum { SAMPLE_SETSIZE = 21 };

typedef struct {
    double time;
    uint64_t seq;
    int64_t kind, worker, item;
} sim_event;

typedef struct {
    PyObject_HEAD
    PyObject *kernel_refs; /* tuple of TokenKernel, one per worker */
    TokenKernelObject **kernel;
    Py_buffer visit_time_view; /* n_workers x n_items float64 */
    const double *visit_time;
    int has_view;
    MTStreamObject *routing, *jitter;
    PyObject *visits; /* list of (worker, item), or NULL */
    int64_t n_items, n_workers, cores, n_machines, budget;
    double local_delay, network_delay, sigma;
    int policy, circulating, started, halted;
    double now;
    uint64_t seq;
    sim_event *heap;
    int64_t heap_len, heap_cap;
    /* Queues as linked lists over the items (a token is in at most one
     * queue): next item, and per worker head, tail and length. */
    int64_t *next, *head, *tail, *queued;
    int64_t *owner;   /* per item: worker, or IN_FLIGHT */
    int64_t *tour;    /* per item: its §3.4 tour, cores entries */
    int64_t *tour_at; /* per item: next stop in tour; cores when done */
    int64_t *pool;    /* scratch candidates, max(n_machines, cores) */
    int64_t *sizes;   /* scratch queue sizes, as many */
    char *busy;
    long long updates, network_hops, local_hops;
} ScheduleObject;

/* repro.errors.SimulationError, raised with a formatted message; -1. */
static int simulation_error(const char *format, ...) {
    static PyObject *error = NULL; /* held for the process's lifetime */
    if (error == NULL) {
        PyObject *errors = PyImport_ImportModule("repro.errors");
        if (errors == NULL)
            return -1;
        error = PyObject_GetAttrString(errors, "SimulationError");
        Py_DECREF(errors);
        if (error == NULL)
            return -1;
    }
    va_list args;
    va_start(args, format);
    PyErr_FormatV(error, format, args);
    va_end(args);
    return -1;
}

/* SimulationError for a refused time or delay, formatted with %S. */
static int refused_time(const char *format, double value) {
    PyObject *number = PyFloat_FromDouble(value);
    if (number == NULL)
        return -1;
    simulation_error(format, number);
    Py_DECREF(number);
    return -1;
}

/* random.Random.random(): 53 bits from two words. */
static double mt_random(MTStreamObject *s) {
    uint32_t a = mt_next(s->mt, &s->index) >> 5;
    uint32_t b = mt_next(s->mt, &s->index) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* libm's sin and cos, each in a function of its own so the compiler
 * does not fuse the pair into one sincos call: gauss must be the
 * math.sin and math.cos that random.py calls. */
static __attribute__((noinline)) double libm_sin(double x) { return sin(x); }
static __attribute__((noinline)) double libm_cos(double x) { return cos(x); }

/* random.Random.gauss(0.0, 1.0), its gauss_next included. */
static double mt_gauss(MTStreamObject *s) {
    double z;
    if (s->has_gauss_next) {
        z = s->gauss_next;
        s->has_gauss_next = 0;
    } else {
        double x2pi = mt_random(s) * (2.0 * 3.141592653589793);
        double g2rad = sqrt(-2.0 * log(1.0 - mt_random(s)));
        z = libm_cos(x2pi) * g2rad;
        s->gauss_next = libm_sin(x2pi) * g2rad;
        s->has_gauss_next = 1;
    }
    return 0.0 + z * 1.0;
}

static inline int64_t routing_below(ScheduleObject *s, int64_t n) {
    return mt_below(s->routing->mt, &s->routing->index, (uint32_t)n);
}

/* ---- the heap: (time, seq) order, seq unique ---------------------- */

static inline int event_before(const sim_event *a, const sim_event *b) {
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

/* Simulator.schedule_after: refuses a delay that is not >= 0. */
static int push_event(ScheduleObject *s, double delay, int64_t kind,
                      int64_t worker, int64_t item) {
    if (!(delay >= 0))
        return refused_time("delay must be >= 0, got %S", delay);
    if (s->heap_len == s->heap_cap)
        return simulation_error("event heap full: %lld events pending",
                                (long long)s->heap_len);
    sim_event event = {s->now + delay, s->seq++, kind, worker, item};
    int64_t at = s->heap_len++;
    while (at > 0) {
        int64_t parent = (at - 1) / 2;
        if (!event_before(&event, &s->heap[parent]))
            break;
        s->heap[at] = s->heap[parent];
        at = parent;
    }
    s->heap[at] = event;
    return 0;
}

static sim_event pop_event(ScheduleObject *s) {
    sim_event top = s->heap[0], last = s->heap[--s->heap_len];
    int64_t at = 0, n = s->heap_len;
    for (;;) {
        int64_t child = 2 * at + 1;
        if (child >= n)
            break;
        if (child + 1 < n && event_before(&s->heap[child + 1], &s->heap[child]))
            child++;
        if (!event_before(&s->heap[child], &last))
            break;
        s->heap[at] = s->heap[child];
        at = child;
    }
    if (n > 0)
        s->heap[at] = last;
    return top;
}

/* ---- queues and the ownership ledger ------------------------------ */

static void push_back(ScheduleObject *s, int64_t q, int64_t j) {
    s->next[j] = NO_ITEM;
    if (s->queued[q]++ == 0)
        s->head[q] = j;
    else
        s->next[s->tail[q]] = j;
    s->tail[q] = j;
}

static void push_front(ScheduleObject *s, int64_t q, int64_t j) {
    s->next[j] = s->queued[q] ? s->head[q] : NO_ITEM;
    if (s->queued[q]++ == 0)
        s->tail[q] = j;
    s->head[q] = j;
}

static int64_t pop_front(ScheduleObject *s, int64_t q) {
    int64_t j = s->head[q];
    s->head[q] = s->next[j];
    s->queued[q]--;
    return j;
}

static int acquire(ScheduleObject *s, int64_t j, int64_t q) {
    if (s->owner[j] != IN_FLIGHT)
        return simulation_error(
            "item %lld acquired by worker %lld while owned by worker %lld",
            (long long)j, (long long)q, (long long)s->owner[j]);
    s->owner[j] = q;
    return 0;
}

static int release(ScheduleObject *s, int64_t j, int64_t q) {
    if (s->owner[j] != q) {
        if (s->owner[j] == IN_FLIGHT)
            return simulation_error(
                "worker %lld released item %lld owned by None",
                (long long)q, (long long)j);
        return simulation_error("worker %lld released item %lld owned by %lld",
                                (long long)q, (long long)j,
                                (long long)s->owner[j]);
    }
    s->owner[j] = IN_FLIGHT;
    return 0;
}

/* ---- routing: the three shipped RecipientPolicy.choose ------------- */

/* The §3.3 payload: a worker's queue, or a machine's summed. */
static int64_t queue_size(const ScheduleObject *s, int64_t id, int machines) {
    if (!machines)
        return s->queued[id];
    int64_t total = 0;
    for (int64_t w = id * s->cores; w < (id + 1) * s->cores; w++)
        total += s->queued[w];
    return total;
}

/* policy.choose(candidates, queue_size, rng) over cand[0:n], n >= 1;
 * cand is scratch (the draws may reorder it). */
static int64_t choose(ScheduleObject *s, int64_t *cand, int64_t n,
                      int machines) {
    if (s->policy == POLICY_UNIFORM)
        return cand[routing_below(s, n)];
    if (s->policy == POLICY_LEAST_QUEUE) {
        int64_t minimum = INT64_MAX, ties = 0;
        for (int64_t i = 0; i < n; i++) {
            s->sizes[i] = queue_size(s, cand[i], machines);
            if (s->sizes[i] < minimum)
                minimum = s->sizes[i];
        }
        for (int64_t i = 0; i < n; i++)
            if (s->sizes[i] == minimum)
                cand[ties++] = cand[i];
        return cand[routing_below(s, ties)];
    }
    /* PowerOfTwoPolicy: rng.sample(candidates, 2), CPython's pool
     * branch at most SAMPLE_SETSIZE candidates, its set branch past. */
    if (n == 1)
        return cand[0];
    int64_t a, b;
    if (n <= SAMPLE_SETSIZE) {
        int64_t first = routing_below(s, n);
        a = cand[first];
        cand[first] = cand[n - 1];
        b = cand[routing_below(s, n - 1)];
    } else {
        int64_t first = routing_below(s, n), second;
        do
            second = routing_below(s, n);
        while (second == first);
        a = cand[first];
        b = cand[second];
    }
    int64_t size_a = queue_size(s, a, machines);
    int64_t size_b = queue_size(s, b, machines);
    if (size_a == size_b)
        return routing_below(s, 2) == 0 ? a : b;
    return size_a < size_b ? a : b;
}

/* ---- the two handlers ---------------------------------------------- */

/* Start worker q's next queued token, if it is idle and has one. */
static int wake(ScheduleObject *s, int64_t q) {
    if (s->busy[q] || s->halted || s->queued[q] == 0)
        return 0;
    int64_t j = pop_front(s, q);
    s->busy[q] = 1;
    double delay = s->visit_time[q * s->n_items + j];
    if (s->sigma != 0.0)
        delay *= exp(s->sigma * mt_gauss(s->jitter) - 0.5 * s->sigma * s->sigma);
    return push_event(s, delay, EVENT_FINISH, q, j);
}

static int deliver(ScheduleObject *s, int64_t q, int64_t j) {
    if (acquire(s, j, q) < 0)
        return -1;
    push_back(s, q, j);
    return s->busy[q] ? 0 : wake(s, q);
}

/* The end of worker q's visit of item j: -1 on an error, 1 when it
 * spent the update budget, else 0. */
static int finish(ScheduleObject *s, int64_t q, int64_t j) {
    if (s->halted) {
        push_front(s, q, j);
        s->busy[q] = 0;
        return 0;
    }
    TokenKernelObject *kernel = s->kernel[q];
    if (kernel->bound.ends[j] > kernel->bound.indptr[j]) {
        if (s->visits != NULL) {
            PyObject *visit = Py_BuildValue("(LL)", (long long)q,
                                            (long long)j);
            int failed = visit == NULL || PyList_Append(s->visits, visit) < 0;
            Py_XDECREF(visit);
            if (failed)
                return -1;
        }
        int64_t applied = kernel->variant->process_token(&kernel->bound, j);
        if (applied < 0) {
            out_of_range(&kernel->bound);
            return -1;
        }
        s->updates += applied;
    }

    int64_t machine = q / s->cores, destination;
    int64_t *tour = s->tour + j * s->cores;
    if (s->tour_at[j] < s->cores) {
        destination = tour[s->tour_at[j]++];
    } else {
        int64_t target = 0;
        if (s->n_machines > 1) {
            int64_t n = 0;
            for (int64_t m = 0; m < s->n_machines; m++)
                if (m != machine)
                    s->pool[n++] = m;
            target = choose(s, s->pool, n, 1);
        }
        for (int64_t i = 0; i < s->cores; i++)
            s->pool[i] = target * s->cores + i;
        if (s->circulating) {
            /* rng.sample(workers, len(workers)): the pool branch. */
            for (int64_t i = 0; i < s->cores; i++) {
                int64_t pick = routing_below(s, s->cores - i);
                tour[i] = s->pool[pick];
                s->pool[pick] = s->pool[s->cores - i - 1];
            }
            destination = tour[0];
            s->tour_at[j] = 1;
        } else {
            destination = choose(s, s->pool, s->cores, 0);
        }
    }
    if (release(s, j, q) < 0)
        return -1;
    double delay;
    if (destination / s->cores == machine) {
        s->local_hops++;
        delay = s->local_delay;
    } else {
        s->network_hops++;
        delay = s->network_delay;
    }
    if (push_event(s, delay, EVENT_DELIVER, destination, j) < 0)
        return -1;

    if (s->budget >= 0 && s->updates >= s->budget) {
        s->halted = 1;
        s->busy[q] = 0;
        return 1;
    }
    s->busy[q] = 0;
    return wake(s, q);
}

/* ---- the Python type ----------------------------------------------- */

static void schedule_dealloc(ScheduleObject *self) {
    if (self->has_view)
        PyBuffer_Release(&self->visit_time_view);
    Py_XDECREF(self->kernel_refs);
    Py_XDECREF(self->routing);
    Py_XDECREF(self->jitter);
    Py_XDECREF(self->visits);
    void *arrays[] = {self->kernel, self->heap, self->next, self->head,
                      self->tail, self->queued, self->owner, self->tour,
                      self->tour_at, self->pool, self->sizes, self->busy};
    for (size_t i = 0; i < sizeof(arrays) / sizeof(arrays[0]); i++)
        PyMem_Free(arrays[i]);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int64_t *new_filled(int64_t n, int64_t value) {
    int64_t *array = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(int64_t));
    for (int64_t i = 0; array != NULL && i < n; i++)
        array[i] = value;
    return array;
}

static PyObject *schedule_new(PyTypeObject *type, PyObject *args,
                              PyObject *kwds) {
    static char *kwlist[] = {"kernels", "visit_time", "cores", "local_delay",
                             "network_delay", "routing", "jitter", "sigma",
                             "policy", "circulate", "budget", "visits", NULL};
    PyObject *kernels, *visit_time, *budget, *visits;
    MTStreamObject *routing, *jitter;
    Py_ssize_t cores;
    double local_delay, network_delay, sigma;
    int policy, circulate;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OOnddO!O!dipOO:Schedule", kwlist, &kernels,
            &visit_time, &cores, &local_delay, &network_delay, &MTStreamType,
            &routing, &MTStreamType, &jitter, &sigma, &policy, &circulate,
            &budget, &visits))
        return NULL;
    ScheduleObject *self = (ScheduleObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->routing = (MTStreamObject *)Py_NewRef(routing);
    self->jitter = (MTStreamObject *)Py_NewRef(jitter);
    self->kernel_refs = PySequence_Tuple(kernels);
    if (self->kernel_refs == NULL)
        goto fail;
    Py_ssize_t p = PyTuple_GET_SIZE(self->kernel_refs);
    if (p < 1 || p >= INT32_MAX || cores < 1 || p % cores != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "Schedule: need one kernel per worker, a whole "
                        "number of machines of `cores` workers");
        goto fail;
    }
    self->kernel = PyMem_Malloc(p * sizeof(TokenKernelObject *));
    if (self->kernel == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t q = 0; q < p; q++) {
        PyObject *kernel = PyTuple_GET_ITEM(self->kernel_refs, q);
        if (!Py_IS_TYPE(kernel, &TokenKernelType)) {
            PyErr_SetString(PyExc_TypeError,
                            "Schedule: kernels must be bound TokenKernels");
            goto fail;
        }
        self->kernel[q] = (TokenKernelObject *)kernel;
    }
    self->n_workers = p;
    self->cores = cores;
    self->n_machines = p / cores;
    self->n_items = self->kernel[0]->bound.n_items;
    for (Py_ssize_t q = 1; q < p; q++)
        if (self->kernel[q]->bound.n_items != self->n_items) {
            PyErr_SetString(PyExc_ValueError,
                            "Schedule: kernels bound over different items");
            goto fail;
        }
    if (get_array(visit_time, &self->visit_time_view, 'f', 0,
                  "visit_time") < 0)
        goto fail;
    self->has_view = 1;
    if (self->visit_time_view.ndim != 2 ||
        self->visit_time_view.shape[0] != p ||
        self->visit_time_view.shape[1] != self->n_items) {
        PyErr_SetString(PyExc_ValueError,
                        "Schedule: visit_time must be (workers, items)");
        goto fail;
    }
    self->visit_time = self->visit_time_view.buf;
    if (policy < POLICY_UNIFORM || policy > POLICY_POWER_OF_TWO) {
        PyErr_SetString(PyExc_ValueError, "Schedule: unknown policy id");
        goto fail;
    }
    self->budget = -1;
    if (budget != Py_None) {
        self->budget = PyLong_AsLongLong(budget);
        if (self->budget == -1 && PyErr_Occurred())
            goto fail;
        if (self->budget < 0) {
            PyErr_SetString(PyExc_ValueError, "Schedule: budget < 0");
            goto fail;
        }
    }
    if (visits != Py_None) {
        if (!PyList_Check(visits)) {
            PyErr_SetString(PyExc_TypeError,
                            "Schedule: visits must be a list or None");
            goto fail;
        }
        self->visits = Py_NewRef(visits);
    }
    self->local_delay = local_delay;
    self->network_delay = network_delay;
    self->sigma = sigma;
    self->policy = policy;
    self->circulating = circulate && cores > 1;
    int64_t n = self->n_items;
    int64_t scratch = self->n_machines > cores ? self->n_machines : cores;
    self->next = new_filled(n, NO_ITEM);
    self->owner = new_filled(n, IN_FLIGHT);
    self->tour = new_filled(n * cores, 0);
    self->tour_at = new_filled(n, cores);
    self->head = new_filled(p, NO_ITEM);
    self->tail = new_filled(p, NO_ITEM);
    self->queued = new_filled(p, 0);
    self->pool = new_filled(scratch, 0);
    self->sizes = new_filled(scratch, 0);
    self->busy = PyMem_Calloc(p, 1);
    if (!self->next || !self->owner || !self->tour || !self->tour_at ||
        !self->head || !self->tail || !self->queued || !self->pool ||
        !self->sizes || !self->busy) {
        PyErr_NoMemory();
        goto fail;
    }
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

static PyObject *schedule_start(ScheduleObject *self, PyObject *args) {
    PyObject *queues, *eval_times;
    if (!PyArg_ParseTuple(args, "OO:start", &queues, &eval_times))
        return NULL;
    if (self->started) {
        simulation_error("a Schedule starts once");
        return NULL;
    }
    self->started = 1;
    PyObject *seq = PySequence_Fast(queues, "queues must be a sequence");
    if (seq == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) != self->n_workers) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "start: one queue per worker");
        return NULL;
    }
    /* Algorithm 1 lines 7-10: each queue's items, in order, owned. */
    for (int64_t q = 0; q < self->n_workers; q++) {
        Py_buffer view;
        if (get_array(PySequence_Fast_GET_ITEM(seq, q), &view, 'i', 0,
                      "queue") < 0) {
            Py_DECREF(seq);
            return NULL;
        }
        const int64_t *items = view.buf;
        int failed = 0;
        for (Py_ssize_t i = 0; !failed && i < length(&view); i++) {
            int64_t j = items[i];
            if (j < 0 || j >= self->n_items) {
                PyErr_Format(PyExc_IndexError,
                             "token item id %lld outside [0, %lld)",
                             (long long)j, (long long)self->n_items);
                failed = 1;
            } else if (acquire(self, j, q) < 0) {
                failed = 1;
            } else {
                push_back(self, q, j);
            }
        }
        PyBuffer_Release(&view);
        if (failed) {
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_DECREF(seq);
    Py_buffer times;
    if (get_array(eval_times, &times, 'f', 0, "eval_times") < 0)
        return NULL;
    /* Every token is queued, in a visit or in flight: one event each
     * at most, beside the evaluations. */
    self->heap_cap = self->n_items + length(&times);
    self->heap = PyMem_Malloc(self->heap_cap * sizeof(sim_event));
    int failed = self->heap == NULL;
    if (failed)
        PyErr_NoMemory();
    for (int64_t q = 0; !failed && q < self->n_workers; q++)
        failed = wake(self, q) < 0;
    const double *at = times.buf;
    for (Py_ssize_t i = 0; !failed && i < length(&times); i++) {
        if (!(at[i] >= self->now))
            failed = refused_time("cannot schedule at %S; simulated clock "
                                  "is at 0.0", at[i]) < 0;
        else
            failed = push_event(self, at[i] - self->now, EVENT_EVALUATE,
                                -1, -1) < 0;
    }
    PyBuffer_Release(&times);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *schedule_advance(ScheduleObject *self, PyObject *arg) {
    double until = PyFloat_AsDouble(arg);
    if (until == -1.0 && PyErr_Occurred())
        return NULL;
    while (self->heap_len > 0 && self->heap[0].time <= until) {
        sim_event event = pop_event(self);
        self->now = event.time;
        int outcome = 0;
        if (event.kind == EVENT_EVALUATE) {
            if (!self->halted)
                return PyFloat_FromDouble(self->now);
        } else if (event.kind == EVENT_DELIVER) {
            outcome = deliver(self, event.worker, event.item);
        } else {
            outcome = finish(self, event.worker, event.item);
        }
        if (outcome < 0)
            return NULL;
        if (outcome > 0)
            return PyFloat_FromDouble(self->now);
    }
    Py_RETURN_NONE;
}

static PyObject *int64_list(const int64_t *values, int64_t n) {
    PyObject *list = PyList_New(n);
    for (int64_t i = 0; list != NULL && i < n; i++) {
        PyObject *value = PyLong_FromLongLong(values[i]);
        if (value == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, value);
    }
    return list;
}

static PyObject *schedule_queue_sizes(ScheduleObject *self,
                                      PyObject *Py_UNUSED(ignored)) {
    return int64_list(self->queued, self->n_workers);
}

static PyObject *schedule_owners(ScheduleObject *self,
                                 PyObject *Py_UNUSED(ignored)) {
    return int64_list(self->owner, self->n_items);
}

static PyMethodDef schedule_methods[] = {
    {"start", (PyCFunction)schedule_start, METH_VARARGS,
     "start(queues, eval_times): queue and own each worker's items "
     "(int64 buffers, in order), wake every worker, then schedule an "
     "evaluation at each time (a float64 buffer)."},
    {"advance", (PyCFunction)schedule_advance, METH_O,
     "advance(until) -> float | None: run events up to `until`; the time "
     "of an evaluation or of the halt, or None when none is left."},
    {"queue_sizes", (PyCFunction)schedule_queue_sizes, METH_NOARGS,
     "Tokens queued at each worker."},
    {"owners", (PyCFunction)schedule_owners, METH_NOARGS,
     "Each item's owner, -1 while in flight."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef schedule_members[] = {
    {"updates", T_LONGLONG, offsetof(ScheduleObject, updates), READONLY,
     "SGD updates applied."},
    {"network_hops", T_LONGLONG, offsetof(ScheduleObject, network_hops),
     READONLY, "Tokens sent between machines."},
    {"local_hops", T_LONGLONG, offsetof(ScheduleObject, local_hops),
     READONLY, "Tokens sent within a machine."},
    {"halted", T_INT, offsetof(ScheduleObject, halted), READONLY,
     "Whether the update budget is spent."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject ScheduleType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.linalg.backends._nomad.Schedule",
    .tp_basicsize = sizeof(ScheduleObject),
    .tp_dealloc = (destructor)schedule_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "NomadSimulation's event loop over bound TokenKernels.",
    .tp_methods = schedule_methods,
    .tp_members = schedule_members,
    .tp_new = schedule_new,
};

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static struct PyModuleDef nomad_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_nomad",
    .m_doc = "Compiled SGD kernels of the cext backend.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__nomad(void) {
    /* The builds this CPU can run, the plain one first; the last is the
     * one picked. */
    const nomad_variant *runnable[2] = {&nomad_variant_base, NULL};
    size_t n_runnable = 1;
#ifdef NOMAD_DISPATCH_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        runnable[n_runnable++] = &nomad_variant_avx2;
#endif
    const nomad_variant *chosen = runnable[n_runnable - 1];
    if (PyType_Ready(&TokenKernelType) < 0 || PyType_Ready(&KernelsType) < 0
        || PyType_Ready(&MTStreamType) < 0 || PyType_Ready(&ScheduleType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&nomad_module);
    PyObject *variants = PyDict_New();
    if (module == NULL || variants == NULL) {
        Py_XDECREF(variants);
        goto fail;
    }
    if (PyModule_AddObjectRef(module, "MTStream",
                              (PyObject *)&MTStreamType) < 0 ||
        PyModule_AddObjectRef(module, "Schedule",
                              (PyObject *)&ScheduleType) < 0) {
        Py_DECREF(variants);
        goto fail;
    }
    if (PyModule_AddObject(module, "_variants", variants) < 0) {
        Py_DECREF(variants);
        goto fail;
    }
    for (size_t i = 0; i < n_runnable; i++) {
        PyObject *kernels = new_kernels(runnable[i]);
        if (kernels == NULL ||
            PyDict_SetItemString(variants, runnable[i]->name, kernels) < 0) {
            Py_XDECREF(kernels);
            goto fail;
        }
        if (runnable[i] == chosen &&
            PyModule_AddObjectRef(module, "kernels", kernels) < 0) {
            Py_DECREF(kernels);
            goto fail;
        }
        Py_DECREF(kernels);
    }
    if (PyModule_AddStringConstant(module, "variant", chosen->name) < 0)
        goto fail;
    return module;

fail:
    Py_XDECREF(module);
    return NULL;
}
