/* Compiled chain integrator; mirrors _chain_numpy.run_chain.
 *
 * Every floating-point operation runs in the same order as in the NumPy
 * reference, so the two backends give bit-identical trajectories. setup.py
 * compiles this file with two flags that keep that true while letting GCC
 * vectorise:
 *   -ffp-contract=off   no fused multiply-adds, so each product is rounded
 *                       before it is added, as in NumPy;
 *   -fno-trapping-math  the (u > 0 ? 2 : 0) select becomes a compare-and-
 *                       mask instead of a branch, so the force loop
 *                       vectorises. It changes no IEEE result.
 * On x86-64 with GCC, integrate() is built three times (target_clones),
 * for AVX-512F, AVX2 and baseline SSE2, with force() inlined into each. The
 * call goes through an ifunc: the dynamic loader runs its resolver once,
 * when the module is loaded, and binds the widest clone the CPU supports.
 * Other targets compile the plain loop.
 * u and v are read through the buffer protocol; only Python.h is needed.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define SIMD_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define SIMD_CLONES
#endif

static inline void force(const double *u, double *F, Py_ssize_t n, double mu,
                         double sigma)
{
    for (Py_ssize_t i = 1; i < n - 1; i++) {
        double lap = (u[i + 1] - 2.0 * u[i]) + u[i - 1];
        double phip = (u[i] + 1.0) - (u[i] > 0.0 ? 2.0 : 0.0);
        F[i] = lap + mu * (sigma - phip);
    }
}

/* n_steps of damped velocity Verlet on sites 1..n-2; F is scratch. */
SIMD_CLONES
static void integrate(double *u, double *v, double *F, Py_ssize_t n,
                      double mu, double sigma, double alpha, double dt,
                      Py_ssize_t n_steps)
{
    double hdt = 0.5 * dt;
    double f1 = 1.0 - alpha * hdt;
    double f2 = 1.0 / (1.0 + alpha * hdt);
    force(u, F, n, mu, sigma);
    for (Py_ssize_t s = 0; s < n_steps; s++) {
        for (Py_ssize_t i = 1; i < n - 1; i++) {
            v[i] = f1 * v[i] + hdt * F[i];
            u[i] = u[i] + dt * v[i];
        }
        force(u, F, n, mu, sigma);
        for (Py_ssize_t i = 1; i < n - 1; i++)
            v[i] = (v[i] + hdt * F[i]) * f2;
    }
}

/* A writable, C-contiguous, 1-D float64 view of obj, or -1 with an error. */
static int state_view(PyObject *obj, Py_buffer *view, const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->readonly) {
        PyErr_Format(PyExc_ValueError, "%s is read-only", name);
    } else if (view->ndim != 1 || !PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be a 1-D C-contiguous buffer",
                     name);
    } else if (view->itemsize != sizeof(double)
               || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_TypeError, "%s must hold float64, not '%s'",
                     name, view->format);
    } else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

static PyObject *run_chain(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"u", "v", "mu", "sigma", "alpha", "dt",
                             "n_steps", NULL};
    PyObject *u_obj, *v_obj, *result = NULL;
    double mu, sigma, alpha, dt, *F;
    Py_ssize_t n_steps;
    Py_buffer ub, vb;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOddddn:run_chain",
                                     kwlist, &u_obj, &v_obj, &mu, &sigma,
                                     &alpha, &dt, &n_steps)
        || state_view(u_obj, &ub, "u") < 0)
        return NULL;
    if (state_view(v_obj, &vb, "v") < 0)
        goto release_u;
    Py_ssize_t n = ub.shape[0];
    if (vb.shape[0] != n) {
        PyErr_Format(PyExc_ValueError, "u has %zd sites but v has %zd",
                     n, vb.shape[0]);
        goto release;
    }
    if (!(F = PyMem_RawMalloc((n + 1) * sizeof(double)))) {
        PyErr_NoMemory();
        goto release;
    }

    Py_BEGIN_ALLOW_THREADS
    integrate(ub.buf, vb.buf, F, n, mu, sigma, alpha, dt, n_steps);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(F);
    result = Py_NewRef(Py_None);
release:
    PyBuffer_Release(&vb);
release_u:
    PyBuffer_Release(&ub);
    return result;
}

static PyMethodDef methods[] = {
    {"run_chain", (PyCFunction)(void (*)(void))run_chain,
     METH_VARARGS | METH_KEYWORDS,
     "run_chain(u, v, mu, sigma, alpha, dt, n_steps)\n--\n\n"
     "Advance the damped chain in place; mirrors _chain_numpy.run_chain."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_chain_core",
    "Compiled chain integrator, bit-identical to _chain_numpy.", -1, methods
};

PyMODINIT_FUNC PyInit__chain_core(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0)
        Py_CLEAR(m);
    return m;
}
