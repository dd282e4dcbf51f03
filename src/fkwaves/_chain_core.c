/* Compiled chain integrator and front scan; mirrors _chain_numpy.
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
 * The NumPy reference makes three passes per step: kick-drift, force, and
 * the closing half-kick. integrate() fuses each step's closing half-kick
 * with the next step's kick-drift, so a step makes two passes over memory:
 * force, then one update. Each element still sees the same operations in
 * the same order, v = (v + hdt F) f2 and then v = f1 v + hdt F,
 * u = u + dt v; only the loop over the sites is shared, so u and v stay
 * bit-identical. The first kick-drift and the last half-kick run alone.
 * On x86-64 with GCC, integrate() is built three times (target_clones),
 * for AVX-512F, AVX2 and baseline SSE2, with force() inlined into each. The
 * call goes through an ifunc: the dynamic loader runs its resolver once,
 * when the module is loaded, and binds the widest clone the CPU supports.
 * Other targets compile the plain loop.
 * u and v are read through the buffer protocol; only Python.h is needed.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
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
    if (n_steps == 0)
        return;
    force(u, F, n, mu, sigma);
    for (Py_ssize_t i = 1; i < n - 1; i++) {
        v[i] = f1 * v[i] + hdt * F[i];
        u[i] = u[i] + dt * v[i];
    }
    for (Py_ssize_t s = 1; s < n_steps; s++) {
        force(u, F, n, mu, sigma);
        for (Py_ssize_t i = 1; i < n - 1; i++) {
            double w = (v[i] + hdt * F[i]) * f2;
            v[i] = f1 * w + hdt * F[i];
            u[i] = u[i] + dt * v[i];
        }
    }
    force(u, F, n, mu, sigma);
    for (Py_ssize_t i = 1; i < n - 1; i++)
        v[i] = (v[i] + hdt * F[i]) * f2;
}

/* A C-contiguous, 1-D float64 view of obj, writable if asked, or -1 with an
 * error. */
static int state_view(PyObject *obj, Py_buffer *view, const char *name,
                      int writable)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (writable && view->readonly) {
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
                                     &alpha, &dt, &n_steps))
        return NULL;
    if (n_steps < 0) {
        PyErr_Format(PyExc_ValueError, "n_steps must be non-negative, got %zd",
                     n_steps);
        return NULL;
    }
    if (state_view(u_obj, &ub, "u", 1) < 0)
        return NULL;
    if (state_view(v_obj, &vb, "v", 1) < 0)
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

/* One pass over u: the leftmost front site (u[i] > 0 >= u[i + 1]) or -1,
 * the number of front sites, and max |u|, which is NaN if any u[i] is. */
static PyObject *front_scan(PyObject *self, PyObject *u_obj)
{
    Py_buffer ub;
    if (state_view(u_obj, &ub, "u", 0) < 0)
        return NULL;
    const double *u = ub.buf;
    Py_ssize_t n = ub.shape[0], first = -1, count = 0;
    if (n == 0) {
        PyBuffer_Release(&ub);
        PyErr_SetString(PyExc_ValueError, "u is empty");
        return NULL;
    }
    double max_abs = fabs(u[0]);
    for (Py_ssize_t i = 0; i < n - 1; i++) {
        double a = fabs(u[i + 1]);
        if (a > max_abs || a != a)
            max_abs = a;
        if (u[i] > 0.0 && u[i + 1] <= 0.0) {
            if (count++ == 0)
                first = i;
        }
    }
    PyBuffer_Release(&ub);
    return Py_BuildValue("nnd", first, count, max_abs);
}

static PyMethodDef methods[] = {
    {"run_chain", (PyCFunction)(void (*)(void))run_chain,
     METH_VARARGS | METH_KEYWORDS,
     "run_chain(u, v, mu, sigma, alpha, dt, n_steps)\n--\n\n"
     "Advance the damped chain in place; mirrors _chain_numpy.run_chain."},
    {"front_scan", front_scan, METH_O,
     "front_scan(u)\n--\n\n"
     "(first, count, max_abs) of u; mirrors _chain_numpy.front_scan."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_chain_core",
    "Compiled chain integrator and front scan, bit-identical to _chain_numpy.",
    -1, methods
};

PyMODINIT_FUNC PyInit__chain_core(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0)
        Py_CLEAR(m);
    return m;
}
