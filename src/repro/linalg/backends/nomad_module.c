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
 * shuffle(int64 buffer), sample(seq, k) and getstate(). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <string.h>

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

static PyObject *token_kernel_ascending(TokenKernelObject *self,
                                        void *closure) {
    (void)closure;
    return PyBool_FromLong(self->bound.ascending != 0);
}

static PyGetSetDef token_kernel_getset[] = {
    {"ascending", (getter)token_kernel_ascending, NULL,
     "Whether users rise strictly inside every bound column.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject TokenKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.linalg.backends._nomad.TokenKernel",
    .tp_basicsize = sizeof(TokenKernelObject),
    .tp_dealloc = (destructor)token_kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A worker's factors and CSC shard, bound by Kernels.bind.",
    .tp_methods = token_kernel_methods,
    .tp_getset = token_kernel_getset,
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

/* Whether users rise strictly inside every column: what process_tokens
 * needs to pair columns (true of Shard.csc(), not of a ColumnStore
 * once an arrival lands at or below its column's last user).  Observed
 * here, never assumed: a caller that writes a column after binding
 * must bind again if the write could break the ascent. */
static int ascending(const int64_t *indptr, const int64_t *ends,
                     Py_ssize_t n_items, const int64_t *users) {
    for (Py_ssize_t j = 0; j < n_items; j++)
        for (int64_t i = indptr[j] + 1; i < ends[j]; i++)
            if (users[i] <= users[i - 1])
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
    kernel->variant = self->variant;
    kernel->bound = (nomad_bound){
        v[0].buf, v[1].buf, indptr, ends, v[3].buf, v[4].buf, v[5].buf,
        n_items, k, ascending(indptr, ends, n_items, v[3].buf), loss_id,
        alpha, beta, lambda_, loss_param,
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
 * what random.py's randrange, shuffle and sample call, in the order
 * they call it.  The interpreted reference these are held to is the
 * list backend's stream (list_backend.py). */

enum { MT_N = 624, MT_M = 397, MT_STATE_VERSION = 3 };

typedef struct {
    PyObject_HEAD
    uint32_t mt[MT_N];
    int index;
    PyObject *gauss_next; /* random.Random's, handed back by getstate() */
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
    self->gauss_next = Py_NewRef(PyTuple_GET_ITEM(state, 2));
    return (PyObject *)self;
}

static void mt_stream_dealloc(MTStreamObject *self) {
    Py_XDECREF(self->gauss_next);
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

/* Insert j into an open-addressed table of `mask + 1` slots (-1 empty);
 * 0 when it was already there.  sample's `selected` set. */
static int insert_new(int64_t *table, size_t mask, uint32_t j) {
    size_t slot = (size_t)((j * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (table[slot] >= 0) {
        if (table[slot] == j)
            return 0;
        slot = (slot + 1) & mask;
    }
    table[slot] = j;
    return 1;
}

/* random.Random.sample(population, k): the pool branch when the
 * population is no larger than CPython's set-size estimate, else
 * rejection against the set of picks, with the same draws. */
static PyObject *mt_stream_sample(MTStreamObject *self, PyObject *args) {
    PyObject *population;
    Py_ssize_t k;
    if (!PyArg_ParseTuple(args, "On:sample", &population, &k))
        return NULL;
    if (!PySequence_Check(population)) {
        PyErr_SetString(PyExc_TypeError, "Population must be a sequence.");
        return NULL;
    }
    Py_ssize_t n = PySequence_Size(population);
    if (n < 0)
        return NULL;
    if (k < 0 || k > n) {
        PyErr_SetString(PyExc_ValueError,
                        "Sample larger than population or is negative");
        return NULL;
    }
    if (n >= MT_BOUND) {
        out_of_bound();
        return NULL;
    }
    Py_ssize_t setsize = 21;
    if (k > 5)
        setsize += (Py_ssize_t)1
                   << (2 * (int)ceil(log((double)(3 * k)) / log(4.0)));
    PyObject *result = PyList_New(k);
    if (result == NULL)
        return NULL;
    if (n <= setsize) {
        PyObject *pool = PySequence_List(population);
        if (pool == NULL)
            goto fail;
        PyObject **slots = ((PyListObject *)pool)->ob_item;
        for (Py_ssize_t i = 0; i < k; i++) {
            Py_ssize_t j = mt_below(self->mt, &self->index,
                                    (uint32_t)(n - i));
            Py_ssize_t last = n - i - 1;
            PyObject *item = slots[j]; /* the pool's reference moves */
            slots[j] = slots[last];
            slots[last] = NULL;
            PyList_SET_ITEM(result, i, item);
        }
        Py_DECREF(pool);
        return result;
    }
    size_t mask = 7;
    while (mask + 1 < 2 * (size_t)k)
        mask = 2 * mask + 1;
    int64_t *table = PyMem_Malloc((mask + 1) * sizeof(int64_t));
    if (table == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    memset(table, 0xff, (mask + 1) * sizeof(int64_t));
    for (Py_ssize_t i = 0; i < k; i++) {
        uint32_t j;
        do
            j = mt_below(self->mt, &self->index, (uint32_t)n);
        while (!insert_new(table, mask, j));
        PyObject *item = PySequence_GetItem(population, j);
        if (item == NULL) {
            PyMem_Free(table);
            goto fail;
        }
        PyList_SET_ITEM(result, i, item);
    }
    PyMem_Free(table);
    return result;

fail:
    Py_DECREF(result);
    return NULL;
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
    return Py_BuildValue("(iNO)", MT_STATE_VERSION, words, self->gauss_next);
}

static PyMethodDef mt_stream_methods[] = {
    {"randrange", (PyCFunction)mt_stream_randrange, METH_O,
     "randrange(n): random.Random.randrange(n), 1 <= n < 2**32."},
    {"randbelow_many", (PyCFunction)mt_stream_randbelow_many, METH_VARARGS,
     "randbelow_many(n, count) -> int64[count]: count randrange(n) draws."},
    {"shuffle", (PyCFunction)mt_stream_shuffle, METH_O,
     "shuffle(buffer): random.Random.shuffle over a writable C-contiguous "
     "int64 buffer, in place."},
    {"sample", (PyCFunction)mt_stream_sample, METH_VARARGS,
     "sample(population, k) -> list: random.Random.sample."},
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
        || PyType_Ready(&MTStreamType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&nomad_module);
    PyObject *variants = PyDict_New();
    if (module == NULL || variants == NULL) {
        Py_XDECREF(variants);
        goto fail;
    }
    if (PyModule_AddObjectRef(module, "MTStream",
                              (PyObject *)&MTStreamType) < 0) {
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
