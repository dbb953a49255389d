/* Compiled kernels for the hot loops; the interface and every result mirror
 * the pure-Python twin ``_kernels_py``, which documents the contract. The
 * five kernels are the semi-planarity witness, the search,
 * ``shift_tables``, which rebuilds the shift-reduced search's other shards
 * and radix-sorts them in one C array before any result tuple is made,
 * ``format_tables``, which writes each table's comma-separated decimal line,
 * and ``coset_labels``, which labels the components of the incidence
 * structure as the cosets of a translation subgroup.
 *
 * Tables are flat row-major sequences of ints in [0, k): ``gadd[x * k + a]``
 * is x + a in G, ``gsub`` and ``hsub`` are the subtraction tables of G and H.
 * ``semiplanar_witness`` and ``coset_labels`` take H's order n apart from
 * G's order k: their ``values`` and n x n ``hadd`` and ``hsub`` hold ints
 * in [0, n).
 * Every sequence is copied into a C array and checked (length and range)
 * before any index is formed from it, so bad input raises ValueError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>
#include <string.h>

/* Largest k whose k * k table indices fit an int. */
#define MAX_K 46340

/* Copy ``seq`` (exactly n ints, each in [lo, k)) into ``out``. */
static int
to_ints(PyObject *seq, Py_ssize_t n, int lo, int k, const char *name, int *out)
{
    PyObject *fast = PySequence_Fast(seq, "kernel tables must be sequences");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        PyErr_Format(PyExc_ValueError, "%s has length %zd; expected %zd",
                     name, PySequence_Fast_GET_SIZE(fast), n);
        Py_DECREF(fast);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        int overflow;
        long v = PyLong_AsLongAndOverflow(items[i], &overflow);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (overflow || v < lo || v >= k) {
            PyErr_Format(PyExc_ValueError, "%s[%zd] = %R is outside [%d, %d)",
                         name, i, items[i], lo, k);
            Py_DECREF(fast);
            return -1;
        }
        out[i] = (int)v;
    }
    Py_DECREF(fast);
    return 0;
}

/* First (a, y, count) with count not in {0, 2}, smallest a then smallest y,
 * for f: G -> H with |G| = k and |H| = n; returns 1 and fills ``w`` when one
 * exists, 0 when f is semi-planar. ``cnt`` is scratch space of n ints. */
static int
first_witness(int k, int n, const int *f, const int *gadd, const int *hsub,
              int *cnt, int w[3])
{
    for (int a = 1; a < k; a++) {
        memset(cnt, 0, (size_t)n * sizeof(int));
        for (int x = 0; x < k; x++)
            cnt[hsub[f[gadd[x * k + a]] * n + f[x]]]++;
        for (int y = 0; y < n; y++) {
            if (cnt[y] != 0 && cnt[y] != 2) {
                w[0] = a;
                w[1] = y;
                w[2] = cnt[y];
                return 1;
            }
        }
    }
    return 0;
}

static PyObject *
semiplanar_witness(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"values", "gadd", "hsub", "k", "n", NULL};
    PyObject *values, *gadd_o, *hsub_o, *result = NULL;
    int k, n, w[3];

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOii", kwlist,
                                     &values, &gadd_o, &hsub_o, &k, &n))
        return NULL;
    if (k < 1 || k > MAX_K)
        return PyErr_Format(PyExc_ValueError, "k = %d is outside [1, %d]", k, MAX_K);
    if (n < 1 || n > MAX_K)
        return PyErr_Format(PyExc_ValueError, "n = %d is outside [1, %d]", n, MAX_K);
    size_t kk = (size_t)k * k, nn = (size_t)n * n;
    int *buf = malloc(((size_t)k + n + kk + nn) * sizeof(int));
    if (buf == NULL)
        return PyErr_NoMemory();
    int *f = buf, *cnt = buf + k, *gadd = cnt + n, *hsub = gadd + kk;
    if (to_ints(values, k, 0, n, "values", f) == 0
            && to_ints(gadd_o, kk, 0, k, "gadd", gadd) == 0
            && to_ints(hsub_o, nn, 0, n, "hsub", hsub) == 0) {
        if (first_witness(k, n, f, gadd, hsub, cnt, w))
            result = Py_BuildValue("(iii)", w[0], w[1], w[2]);
        else
            result = Py_NewRef(Py_None);
    }
    free(buf);
    return result;
}

/* Depth-first search state; the arrays are the pure twin's locals. */
typedef struct {
    int k, viol, use_pruning, failed;
    long long visited, count;
    const int *gadd, *gsub, *hsub, *pin;
    int *f, *cnt, *scratch;
    PyObject *found;
} Search;

/* Add ``step`` (+1 or -1) to the difference counts of every finished pair
 * (u, x), u < x, keeping ``viol`` = the number of cells above 2. */
static void
update_counts(Search *s, int x, int step)
{
    const int k = s->k, v = s->f[x], edge = step > 0 ? 3 : 2;
    const int *gsub = s->gsub, *hsub = s->hsub, *f = s->f;
    int *cnt = s->cnt, crossed = 0;
    for (int u = 0; u < x; u++) {
        int *ci = cnt + gsub[x * k + u] * k + hsub[v * k + f[u]];
        int *cj = cnt + gsub[u * k + x] * k + hsub[f[u] * k + v];
        crossed += (*ci += step) == edge;
        crossed += (*cj += step) == edge;
    }
    s->viol += step * crossed;
}

static int
leaf_is_semiplanar(Search *s)
{
    int k = s->k, w[3];
    if (!s->use_pruning)
        return !first_witness(k, k, s->f, s->gadd, s->hsub, s->scratch, w);
    if (s->viol)
        return 0;
    for (int i = k; i < k * k; i++)
        if (s->cnt[i] == 1)
            return 0;
    return 1;
}

/* A new tuple of the n ints in ``vals``. */
static PyObject *
int_tuple(const int *vals, Py_ssize_t n)
{
    PyObject *tup = PyTuple_New(n);
    for (Py_ssize_t i = 0; tup != NULL && i < n; i++) {
        PyObject *v = PyLong_FromLong(vals[i]);
        if (v == NULL)
            Py_CLEAR(tup);
        else
            PyTuple_SET_ITEM(tup, i, v);
    }
    return tup;
}

static void
dfs(Search *s, int x)
{
    int k = s->k, lo = 0, hi = k;
    if (x == k) {
        s->visited++;
        if (leaf_is_semiplanar(s)) {
            PyObject *t = int_tuple(s->f, k);
            if (t == NULL || PyList_Append(s->found, t) < 0)
                s->failed = 1;
            Py_XDECREF(t);
            s->count++;
        }
        return;
    }
    if (s->pin[x] >= 0) {
        lo = s->pin[x];
        hi = lo + 1;
    }
    for (int v = lo; v < hi && !s->failed; v++) {
        s->f[x] = v;
        if (s->use_pruning)
            update_counts(s, x, 1);
        if (s->viol == 0)
            dfs(s, x + 1);
        if (s->use_pruning)
            update_counts(s, x, -1);
    }
}

static PyObject *
search_tables(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"k", "gadd", "gsub", "hsub", "fix_zero",
                             "shard_val", "use_pruning", "unused", "pins", NULL};
    PyObject *gadd_o, *gsub_o, *hsub_o, *unused = NULL, *pins_o = Py_None;
    PyObject *result = NULL;
    Search s = {0};
    int fix_zero, shard_val;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOOOpip|O$O", kwlist, &s.k,
                                     &gadd_o, &gsub_o, &hsub_o, &fix_zero,
                                     &shard_val, &s.use_pruning, &unused, &pins_o))
        return NULL;
    int k = s.k;
    if (k < 2 || k > MAX_K)
        return PyErr_Format(PyExc_ValueError, "k = %d is outside [2, %d]", k, MAX_K);
    if (shard_val >= k)
        return PyErr_Format(PyExc_ValueError, "shard_val = %d is not below k = %d",
                            shard_val, k);
    size_t kk = (size_t)k * k;
    int *buf = calloc(3 * (size_t)k + 4 * kk, sizeof(int));
    if (buf == NULL)
        return PyErr_NoMemory();
    int *gadd = buf, *gsub = gadd + kk, *hsub = gsub + kk;
    s.gadd = gadd;
    s.gsub = gsub;
    s.hsub = hsub;
    s.cnt = hsub + kk;
    s.f = s.cnt + kk;
    s.scratch = s.f + k;
    int *pin = s.scratch + k;
    s.pin = pin;
    /* fix_zero and shard_val pin f(0) and f(1), as a ``pins`` entry may */
    int fixed[2] = {fix_zero ? 0 : -1, shard_val}, ok = 1;
    if (pins_o == Py_None)
        memset(pin, -1, (size_t)k * sizeof(int));
    else
        ok = to_ints(pins_o, k, -1, k, "pins", pin) == 0;
    for (int x = 0; ok && x < 2; x++) {
        if (fixed[x] >= 0 && pin[x] >= 0 && pin[x] != fixed[x]) {
            PyErr_Format(PyExc_ValueError, "pins[%d] = %d conflicts with pinned value %d",
                         x, pin[x], fixed[x]);
            ok = 0;
        }
        if (fixed[x] > pin[x])
            pin[x] = fixed[x];
    }
    if (ok && to_ints(gadd_o, kk, 0, k, "gadd", gadd) == 0
            && to_ints(gsub_o, kk, 0, k, "gsub", gsub) == 0
            && to_ints(hsub_o, kk, 0, k, "hsub", hsub) == 0
            && (s.found = PyList_New(0)) != NULL) {
        dfs(&s, 0);
        if (!s.failed)
            result = Py_BuildValue("(LLO)", s.visited, s.count, s.found);
        Py_DECREF(s.found);
    }
    free(buf);
    return result;
}

static PyObject *
shift_tables(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"k", "hadd", "shifts", "tables", NULL};
    PyObject *hadd_o, *shifts_o, *tables_o, *shifts, *tables, *result = NULL;
    int k, gc_was_enabled = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOOO", kwlist, &k, &hadd_o,
                                     &shifts_o, &tables_o))
        return NULL;
    if (k < 1 || k > MAX_K)
        return PyErr_Format(PyExc_ValueError, "k = %d is outside [1, %d]", k, MAX_K);
    shifts = PySequence_Fast(shifts_o, "shifts must be a sequence");
    if (shifts == NULL)
        return NULL;
    tables = PySequence_Fast(tables_o, "tables must be a sequence");
    if (tables == NULL) {
        Py_DECREF(shifts);
        return NULL;
    }
    Py_ssize_t ns = PySequence_Fast_GET_SIZE(shifts);
    Py_ssize_t nt = PySequence_Fast_GET_SIZE(tables);
    size_t kk = (size_t)k * k;
    int *buf = NULL;
    Py_ssize_t *idx = NULL;
    /* k rows of hadd, ns shifts, one base table and ns * nt result rows, of
     * k ints and two sort indices each: at most ``rows_max`` rows keep every
     * size a Py_ssize_t */
    size_t rows_max = (size_t)PY_SSIZE_T_MAX / (k * sizeof(int) + 2 * sizeof(Py_ssize_t));
    if (rows_max > (size_t)k + 1
            && (size_t)ns <= (rows_max - k - 1) / ((size_t)nt + 1)) {
        buf = malloc((kk + k * ((size_t)ns * nt + ns + 1)) * sizeof(int));
        idx = malloc((2 * (size_t)ns * nt + k + 1) * sizeof(Py_ssize_t));
    }
    if (buf == NULL || idx == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t n = ns * nt;
    int *hadd = buf, *chi = hadd + kk, *base = chi + (size_t)ns * k;
    int *rows = base + k;
    if (to_ints(hadd_o, kk, 0, k, "hadd", hadd) < 0)
        goto done;
    for (Py_ssize_t j = 0; j < ns; j++)
        if (to_ints(PySequence_Fast_GET_ITEM(shifts, j), k, 0, k, "shift",
                    chi + j * k) < 0)
            goto done;
    int *row = rows;
    for (Py_ssize_t t = 0; t < nt; t++) {
        if (to_ints(PySequence_Fast_GET_ITEM(tables, t), k, 0, k, "table", base) < 0)
            goto done;
        for (Py_ssize_t j = 0; j < ns; j++, row += k)
            for (int x = 0; x < k; x++)
                row[x] = hadd[base[x] * k + chi[j * k + x]];
    }
    /* LSD radix sort of the row indices: one stable counting sort per
     * column, last column first, with k buckets each, O(k * (n + k)). */
    Py_ssize_t *order = idx, *spare = idx + n, *start = spare + n;
    for (Py_ssize_t i = 0; i < n; i++)
        order[i] = i;
    for (int c = k - 1; c >= 0; c--) {
        memset(start, 0, ((size_t)k + 1) * sizeof(Py_ssize_t));
        for (Py_ssize_t i = 0; i < n; i++)
            start[rows[i * k + c] + 1]++;
        for (int v = 0; v < k; v++)
            start[v + 1] += start[v];
        for (Py_ssize_t i = 0; i < n; i++)
            spare[start[rows[order[i] * k + c]]++] = order[i];
        Py_ssize_t *sorted = spare;
        spare = order;
        order = sorted;
    }
    if ((result = PyList_New(n)) == NULL)
        goto done;
    /* Each 700 new tuples would start a collection that finds no garbage;
     * the previous state comes back at ``done`` on every path. */
    gc_was_enabled = PyGC_Disable();
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *tup = int_tuple(rows + order[i] * k, k);
        if (tup == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, i, tup);
    }
done:
    if (gc_was_enabled)
        PyGC_Enable();
    free(buf);
    free(idx);
    Py_DECREF(shifts);
    Py_DECREF(tables);
    return result;
}

static PyObject *
format_tables(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"tables", "k", NULL};
    PyObject *tables_o, *tables, *result = NULL;
    int k;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Oi", kwlist, &tables_o, &k))
        return NULL;
    if (k < 1 || k > MAX_K)
        return PyErr_Format(PyExc_ValueError, "k = %d is outside [1, %d]", k, MAX_K);
    tables = PySequence_Fast(tables_o, "tables must be a sequence");
    if (tables == NULL)
        return NULL;
    Py_ssize_t nt = PySequence_Fast_GET_SIZE(tables);
    /* k values and a line of at most 5 digits and a comma per value */
    int *vals = malloc((size_t)k * (sizeof(int) + 6));
    if (vals == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    char *line = (char *)(vals + k);
    if ((result = PyList_New(nt)) == NULL)
        goto done;
    for (Py_ssize_t t = 0; t < nt; t++) {
        if (to_ints(PySequence_Fast_GET_ITEM(tables, t), k, 0, k, "table", vals) < 0) {
            Py_CLEAR(result);
            goto done;
        }
        char *p = line;
        for (int x = 0; x < k; x++) {
            char digits[5];
            int nd = 0, v = vals[x];
            do {
                digits[nd++] = (char)('0' + v % 10);
                v /= 10;
            } while (v);
            while (nd)
                *p++ = digits[--nd];
            *p++ = ',';
        }
        PyObject *str = PyUnicode_New(p - line - 1, 127);
        if (str == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        memcpy(PyUnicode_1BYTE_DATA(str), line, p - line - 1);
        PyList_SET_ITEM(result, t, str);
    }
done:
    free(vals);
    Py_DECREF(tables);
    return result;
}

/* The id i + j in G x H, ids being a * n + b. */
static inline int
add_ids(int i, int j, int k, int n, const int *gadd, const int *hadd)
{
    return gadd[i / n * k + j / n] * n + hadd[i % n * n + j % n];
}

/* Fill the line and point labels of S(G, H; f), |G| = k, |H| = n, and return
 * the component count; the pure twin documents the method. ``sub`` (v ints)
 * and ``in_sub`` (v zeroed flags) are scratch space. An element joins ``sub``
 * once, so ``sub`` cannot overflow, and a coset walk stops when it adds
 * nothing: both hold for any tables in range, group tables or not. */
static int
label_cosets(int k, int n, const int *f, const int *gadd, const int *hadd,
             const int *hsub, int *sub, char *in_sub, int *line, int *point)
{
    int v = k * n, size = 1;
    sub[0] = 0;
    in_sub[0] = 1;
    for (int a = 1; a < k && size < v; a++) {
        for (int u = 0; u < k && size < v; u++) {
            int gen = a * n + hsub[f[gadd[u * k + a]] * n + f[u]], base = size;
            for (int step = gen, grew = 1; grew && !in_sub[step];
                 step = add_ids(step, gen, k, n, gadd, hadd)) {
                grew = 0;
                for (int i = 0; i < base; i++) {
                    int t = add_ids(step, sub[i], k, n, gadd, hadd);
                    if (!in_sub[t]) {
                        in_sub[t] = 1;
                        sub[size++] = t;
                        grew = 1;
                    }
                }
            }
        }
    }
    if (size == v) {
        memset(line, 0, (size_t)v * sizeof(int));
        memset(point, 0, (size_t)v * sizeof(int));
        return 1;
    }
    int label = 0;
    for (int i = 0; i < v; i++)
        line[i] = -1;
    for (int seed = 0; seed < v; seed++) {
        if (line[seed] >= 0)
            continue;
        for (int i = 0; i < size; i++)
            line[add_ids(seed, sub[i], k, n, gadd, hadd)] = label;
        label++;
    }
    for (int x = 0; x < k; x++)
        for (int y = 0; y < n; y++)
            point[x * n + y] = line[x * n + hsub[y * n + f[0]]];
    return label;
}

static PyObject *
coset_labels(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"values", "gadd", "hadd", "hsub", "k", "n", NULL};
    PyObject *values, *gadd_o, *hadd_o, *hsub_o, *result = NULL;
    int k, n;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOii", kwlist, &values,
                                     &gadd_o, &hadd_o, &hsub_o, &k, &n))
        return NULL;
    if (k < 1 || k > MAX_K)
        return PyErr_Format(PyExc_ValueError, "k = %d is outside [1, %d]", k, MAX_K);
    if (n < 1 || n > MAX_K)
        return PyErr_Format(PyExc_ValueError, "n = %d is outside [1, %d]", n, MAX_K);
    size_t kk = (size_t)k * k, nn = (size_t)n * n, v = (size_t)k * n;
    int *buf = malloc(((size_t)k + kk + 2 * nn + 3 * v) * sizeof(int));
    char *in_sub = calloc(v, 1);
    if (buf == NULL || in_sub == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int *f = buf, *gadd = f + k, *hadd = gadd + kk, *hsub = hadd + nn;
    int *sub = hsub + nn, *line = sub + v, *point = line + v;
    if (to_ints(values, k, 0, n, "values", f) == 0
            && to_ints(gadd_o, kk, 0, k, "gadd", gadd) == 0
            && to_ints(hadd_o, nn, 0, n, "hadd", hadd) == 0
            && to_ints(hsub_o, nn, 0, n, "hsub", hsub) == 0) {
        int count = label_cosets(k, n, f, gadd, hadd, hsub, sub, in_sub, line, point);
        PyObject *points = int_tuple(point, v);
        PyObject *lines = points == NULL ? NULL : int_tuple(line, v);
        if (lines != NULL)
            result = Py_BuildValue("(OOi)", points, lines, count);
        Py_XDECREF(points);
        Py_XDECREF(lines);
    }
done:
    free(buf);
    free(in_sub);
    return result;
}

static PyMethodDef methods[] = {
    {"semiplanar_witness", (PyCFunction)(void (*)(void))semiplanar_witness,
     METH_VARARGS | METH_KEYWORDS,
     "semiplanar_witness(values, gadd, hsub, k, n)\n--\n\n"
     "First (a, y, count) with count not in {0, 2}, smallest a then smallest\n"
     "y, for a table of k entries in [0, n); None when it is semi-planar."},
    {"search_tables", (PyCFunction)(void (*)(void))search_tables,
     METH_VARARGS | METH_KEYWORDS,
     "search_tables(k, gadd, gsub, hsub, fix_zero, shard_val, use_pruning, "
     "unused=None, *, pins=None)\n--\n\n"
     "Enumerate value tables of length k in lexicographic order; returns\n"
     "(visited, count, found). ``unused`` is accepted and ignored until the\n"
     "next benchmark change removes it. See the pure-Python twin for the\n"
     "contract."},
    {"shift_tables", (PyCFunction)(void (*)(void))shift_tables,
     METH_VARARGS | METH_KEYWORDS,
     "shift_tables(k, hadd, shifts, tables)\n--\n\n"
     "Every t + chi for each table t and each shift chi, as tuples in\n"
     "lexicographic order. See the pure-Python twin for the contract."},
    {"format_tables", (PyCFunction)(void (*)(void))format_tables,
     METH_VARARGS | METH_KEYWORDS,
     "format_tables(tables, k)\n--\n\n"
     "The comma-separated decimal line of each value table of length k.\n"
     "See the pure-Python twin for the contract."},
    {"coset_labels", (PyCFunction)(void (*)(void))coset_labels,
     METH_VARARGS | METH_KEYWORDS,
     "coset_labels(values, gadd, hadd, hsub, k, n)\n--\n\n"
     "(point labels, line labels, count) of the components of the incidence\n"
     "structure of a table G -> H. See the pure-Python twin for the contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_speedups",
    "Compiled kernels for the hot loops; interface mirrors ``_kernels_py``.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
