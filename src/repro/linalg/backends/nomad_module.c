/* The Python face of the compiled kernels: the extension module the
 * "cext" backend loads (cext_build.py links it with every build of
 * nomad_kernels.c into one shared object).
 *
 * The module picks one nomad_variant when it loads — the AVX2 build
 * where it was linked in and the CPU reports AVX2, else the plain one —
 * and exposes it as `kernels`, a Kernels object:
 *
 *   kernels.bind(w, h, indptr, users, ratings, counts, loss_id,
 *                alpha, beta, lambda_, loss_param) -> TokenKernel
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
 * builds to each other's bits; `variant` names the one picked. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

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

enum { N_BOUND = 6 }; /* w, h, indptr, users, ratings, counts */

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

/* Whether users rise strictly inside every column: what process_tokens
 * needs to pair columns (true of Shard.csc(), not of a ColumnStore in
 * arrival order).  Observed here, never assumed. */
static int ascending(const int64_t *indptr, Py_ssize_t n_items,
                     const int64_t *users) {
    for (Py_ssize_t j = 0; j < n_items; j++)
        for (int64_t i = indptr[j] + 1; i < indptr[j + 1]; i++)
            if (users[i] <= users[i - 1])
                return 0;
    return 1;
}

static PyObject *kernels_bind(KernelsObject *self, PyObject *args) {
    PyObject *arrays[N_BOUND];
    long long loss_id;
    double alpha, beta, lambda_, loss_param;
    if (!PyArg_ParseTuple(args, "OOOOOOLdddd:bind", &arrays[0], &arrays[1],
                          &arrays[2], &arrays[3], &arrays[4], &arrays[5],
                          &loss_id, &alpha, &beta, &lambda_, &loss_param))
        return NULL;
    static const char kinds[N_BOUND] = {'f', 'f', 'i', 'i', 'f', 'i'};
    static const int writable[N_BOUND] = {1, 1, 0, 0, 0, 1};
    static const char *names[N_BOUND] = {"w", "h", "indptr",
                                         "users", "ratings", "counts"};
    TokenKernelObject *kernel = PyObject_New(TokenKernelObject,
                                             &TokenKernelType);
    if (kernel == NULL)
        return NULL;
    Py_buffer *v = kernel->views;
    for (kernel->n_views = 0; kernel->n_views < N_BOUND; kernel->n_views++) {
        int i = kernel->n_views;
        if (get_array(arrays[i], &v[i], kinds[i], writable[i], names[i]) < 0)
            goto fail;
    }
    Py_ssize_t k = row_length(&v[0], "w");
    if (k < 0 || row_length(&v[1], "h") < 0)
        goto fail;
    Py_ssize_t n_items = v[1].shape[0], nnz = length(&v[3]);
    const int64_t *indptr = v[2].buf;
    int csc = v[1].shape[1] == k && length(&v[2]) == n_items + 1 &&
              length(&v[4]) == nnz && length(&v[5]) == nnz &&
              indptr[0] == 0 && indptr[n_items] == nnz;
    for (Py_ssize_t j = 0; csc && j < n_items; j++)
        csc = indptr[j] <= indptr[j + 1];
    if (!csc || !in_range(v[3].buf, nnz, v[0].shape[0])) {
        PyErr_SetString(PyExc_ValueError,
                        "bind_tokens: shard arrays do not describe a CSC "
                        "over w/h");
        goto fail;
    }
    kernel->variant = self->variant;
    kernel->bound = (nomad_bound){
        v[0].buf, v[1].buf, indptr, v[3].buf, v[4].buf, v[5].buf,
        n_items, k, ascending(indptr, n_items, v[3].buf), loss_id,
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
     "lambda_, loss_param) -> TokenKernel"},
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
    if (PyType_Ready(&TokenKernelType) < 0 || PyType_Ready(&KernelsType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&nomad_module);
    PyObject *variants = PyDict_New();
    if (module == NULL || variants == NULL) {
        Py_XDECREF(variants);
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
