/* Compiled chain integrator; mirrors _chain_numpy.run_chain.
 *
 * Every floating-point operation runs in the same order as in the NumPy
 * reference, and the build disables fused multiply-adds
 * (-ffp-contract=off), so the two backends give bit-identical trajectories.
 * u and v are read through the buffer protocol; only Python.h is needed.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

static void force(const double *u, double *F, Py_ssize_t n, double mu,
                  double sigma)
{
    for (Py_ssize_t i = 1; i < n - 1; i++) {
        double lap = (u[i + 1] - 2.0 * u[i]) + u[i - 1];
        double phip = (u[i] + 1.0) - (u[i] > 0.0 ? 2.0 : 0.0);
        F[i] = lap + mu * (sigma - phip);
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

    double *u = ub.buf, *v = vb.buf;
    double hdt = 0.5 * dt;
    double f1 = 1.0 - alpha * hdt;
    double f2 = 1.0 / (1.0 + alpha * hdt);
    Py_BEGIN_ALLOW_THREADS
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
