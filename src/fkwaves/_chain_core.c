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
 * A chain of more than TILE interior sites does not fit L1 (u, v and F of
 * 3001 sites take 70 KiB), so its fused steps run in blocks of up to DEPTH
 * steps (time skewing with ghost zones). Each block visits the tiles of
 * TILE sites in turn: it copies a tile's u and v into a scratch buffer
 * with up to DEPTH ghost sites on each side, takes the block's steps
 * there, each on one site fewer from every ghost edge (a frozen chain end
 * stays a real end), and copies the tile's own sites back. Every site
 * still takes the same operations in the same order, so the tiled path is
 * bit-identical too; a chain within one tile keeps the plain loop.
 * On x86-64 with GCC, integrate() is built three times (target_clones),
 * for AVX-512F, AVX2 and baseline SSE2, with its loops inlined into each.
 * The call goes through an ifunc: the dynamic loader runs its resolver
 * once, when the module is loaded, and binds the widest clone the CPU
 * supports.
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

/* The blocked path's tile: TILE interior sites, advanced DEPTH steps per
 * visit. Its u, v and F buffers hold TILE + 2 DEPTH doubles each,
 * 3 x 1088 x 8 B = 25.5 KiB, so they stay in a 48 KiB L1d next to the two
 * DEPTH-site carries and the lines that load and store the tile. The
 * ghosts recompute 2 DEPTH sites in the first step, falling to none in the
 * last, so a block costs about DEPTH / TILE = 3% more force evaluations;
 * one load and one store of u and v then serve DEPTH steps. A chain whose
 * n - 2 interior sites fit in one tile keeps the single-tile loop: N = 1000
 * (u, v and F in 23.5 KiB) already runs from L1. */
#define TILE 1024
#define DEPTH 32
#define TILE_SCRATCH (3 * (TILE + 2 * DEPTH) + 2 * DEPTH)
#define TILED(n) ((n) - 2 > TILE)

typedef struct {
    double mu, sigma, dt, hdt, f1, f2;
} coefs;

static inline void force(const double *u, double *F, Py_ssize_t lo,
                         Py_ssize_t hi, const coefs *c)
{
    for (Py_ssize_t i = lo; i < hi; i++) {
        double lap = (u[i + 1] - 2.0 * u[i]) + u[i - 1];
        double phip = (u[i] + 1.0) - (u[i] > 0.0 ? 2.0 : 0.0);
        F[i] = lap + c->mu * (c->sigma - phip);
    }
}

/* One fused step on sites lo..hi-1: the closing half-kick of one step and
 * the kick-drift of the next. */
static inline void fused_step(double *u, double *v, double *F, Py_ssize_t lo,
                              Py_ssize_t hi, const coefs *c)
{
    force(u, F, lo, hi, c);
    for (Py_ssize_t i = lo; i < hi; i++) {
        double w = (v[i] + c->hdt * F[i]) * c->f2;
        v[i] = c->f1 * w + c->hdt * F[i];
        u[i] = u[i] + c->dt * v[i];
    }
}

/* d <= DEPTH fused steps on a chain of more than one tile, one tile at a
 * time, left to right. Tile [a, b) is loaded with the sites [lo, hi) that
 * its last site's d-step stencil reaches, clipped to the chain. Step k
 * updates the buffer's sites whose stencil still lies in it: a ghost edge
 * gives up one site per step, a frozen chain end none. After d steps the
 * tile's own sites are final and go back; the ghosts are dropped. The next
 * tile's left ghosts are this tile's sites before the block, so they are
 * saved to the carry before this tile steps. */
static inline void tiled_block(double *u, double *v, double *buf,
                               Py_ssize_t n, Py_ssize_t d, const coefs *c)
{
    double *tu = buf, *tv = tu + TILE + 2 * DEPTH, *tF = tv + TILE + 2 * DEPTH;
    double *cu = tF + TILE + 2 * DEPTH, *cv = cu + DEPTH;
    size_t site = sizeof(double);
    cu[0] = u[0];
    cv[0] = v[0];
    for (Py_ssize_t a = 1; a < n - 1; a += TILE) {
        Py_ssize_t b = a + TILE < n - 1 ? a + TILE : n - 1;
        Py_ssize_t lo = a > d ? a - d : 0, hi = b + d < n ? b + d : n;
        memcpy(tu, cu, (a - lo) * site);
        memcpy(tv, cv, (a - lo) * site);
        memcpy(tu + (a - lo), u + a, (hi - a) * site);
        memcpy(tv + (a - lo), v + a, (hi - a) * site);
        if (b < n - 1) {
            memcpy(cu, tu + (b - d - lo), d * site);
            memcpy(cv, tv + (b - d - lo), d * site);
        }
        for (Py_ssize_t k = 1; k <= d; k++) {
            Py_ssize_t first = lo > 0 ? lo + k : 1;
            Py_ssize_t last = hi < n ? hi - k : n - 1;
            fused_step(tu, tv, tF, first - lo, last - lo, c);
        }
        memcpy(u + a, tu + (a - lo), (b - a) * site);
        memcpy(v + a, tv + (a - lo), (b - a) * site);
    }
}

/* n_steps of damped velocity Verlet on sites 1..n-2. scratch holds n + 1
 * doubles, and TILE_SCRATCH more for a TILED(n) chain. */
SIMD_CLONES
static void integrate(double *u, double *v, double *scratch, Py_ssize_t n,
                      double mu, double sigma, double alpha, double dt,
                      Py_ssize_t n_steps)
{
    double hdt = 0.5 * dt;
    coefs c = {mu, sigma, dt, hdt, 1.0 - alpha * hdt,
               1.0 / (1.0 + alpha * hdt)};
    double *F = scratch;
    if (n_steps == 0)
        return;
    force(u, F, 1, n - 1, &c);
    for (Py_ssize_t i = 1; i < n - 1; i++) {
        v[i] = c.f1 * v[i] + hdt * F[i];
        u[i] = u[i] + dt * v[i];
    }
    if (TILED(n)) {
        /* the n_steps - 1 fused steps in blocks of near-equal depth */
        Py_ssize_t m = n_steps - 1, blocks = (m + DEPTH - 1) / DEPTH;
        for (Py_ssize_t j = 0; j < blocks; j++)
            tiled_block(u, v, F + n + 1, n,
                        m / blocks + (j < m % blocks), &c);
    } else {
        for (Py_ssize_t s = 1; s < n_steps; s++)
            fused_step(u, v, F, 1, n - 1, &c);
    }
    force(u, F, 1, n - 1, &c);
    for (Py_ssize_t i = 1; i < n - 1; i++)
        v[i] = (v[i] + hdt * F[i]) * c.f2;
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
    double mu, sigma, alpha, dt, *scratch;
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
    size_t size = n + 1 + (TILED(n) ? TILE_SCRATCH : 0);
    if (!(scratch = PyMem_RawMalloc(size * sizeof(double)))) {
        PyErr_NoMemory();
        goto release;
    }

    Py_BEGIN_ALLOW_THREADS
    integrate(ub.buf, vb.buf, scratch, n, mu, sigma, alpha, dt, n_steps);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(scratch);
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
    if (m != NULL && (PyModule_AddStringConstant(m, "BACKEND", "c") < 0
                      || PyModule_AddIntMacro(m, TILE) < 0
                      || PyModule_AddIntMacro(m, DEPTH) < 0))
        Py_CLEAR(m);
    return m;
}
