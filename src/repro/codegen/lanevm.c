/* Config-lane bytecode interpreter.
 *
 * Runs one lowered config-lane or input-sweep batch kernel (see
 * native.py) over all K x N lanes: every instruction is one C loop
 * over the lanes, so a kernel call costs one foreign call instead of
 * one numpy dispatch per operation.
 *
 * Values mirror the numpy path's broadcasting: a register holds a
 * scalar, a config row (K values, one per configuration), an input
 * column (N values, one per point) or a full K x N grid, and every
 * operation broadcasts its operands exactly like numpy would.  Each
 * register also carries the Python type the numpy path would hold
 * (float, int, bool or None), because int arithmetic, int // and %,
 * and the intrinsics' result types follow it.
 *
 * Exactness rests on three rules:
 *   - element operations are IEEE binary64 (built with
 *     -fno-fast-math -ffp-contract=off, so nothing is contracted into
 *     an FMA or reassociated);
 *   - rounding is a (float) or (_Float16) cast, correctly rounded from
 *     double, and transcendentals call the same libm functions that
 *     CPython's math module wraps;
 *   - wherever Python could raise instead of returning a value (math
 *     domain and overflow errors, division by zero on scalars, int
 *     overflow past the exact range of a double, bad indices, empty
 *     tapes), the interpreter stops with LVM_REPLAY and the caller
 *     re-runs the call on the numpy path.
 *
 * Build: gcc -O2 -fno-fast-math -ffp-contract=off -shared -fPIC.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LVM_OK 0
#define LVM_REPLAY 1
#define LVM_NOMEM 2

/* Python types of register values */
#define KF 0 /* float */
#define KI 1 /* int */
#define KB 2 /* bool */
#define KN 3 /* None / unbound */

/* ints are held as doubles; past 2**53 they would lose exactness */
#define INT_LIMIT 9007199254740992.0

enum {
    OP_LDI = 1,  /* dst, imm             */
    OP_LDCS,     /* dst, const site      */
    OP_LDCH,     /* dst, charge site     */
    OP_MOV,      /* dst, src             */
    OP_TAKE,     /* dst, src (src dead)  */
    OP_ADD,      /* dst, a, b            */
    OP_SUB,
    OP_MUL,
    OP_DIV,
    OP_FLOORDIV,
    OP_MOD,
    OP_EQ,
    OP_NE,
    OP_LT,
    OP_LE,
    OP_GT,
    OP_GE,
    OP_AND,
    OP_OR,
    OP_NEG,      /* dst, a               */
    OP_NOT,
    OP_RND,      /* dst, site, a, dead   */
    OP_C32,      /* dst, a               */
    OP_C16,
    OP_CI64,
    OP_WHERE,    /* dst, m, a, b         */
    OP_CALL,     /* dst, fn, a, b(-1)    */
    OP_PUSH,     /* stack, a             */
    OP_POP,      /* dst(-1 discards), stack */
    OP_JMP,      /* target               */
    OP_JF,       /* cond, target         */
    OP_FORPREP,  /* h, lo, hi, step      */
    OP_FORNEXT,  /* var, h, exit         */
    OP_LDX,      /* dst, array, idx      */
    OP_STX,      /* array, idx, src      */
    OP_RET,      /* n, r1..rn            */
    OP_DROP,     /* n, r1..rn: dead registers give their buffers back */
    OP_DROPL     /* at: the same, for the list (n, r1..rn) at code[at] */
};

/* intrinsic ids; the first FN_CHECKED ones wrap math.* and replay on
 * a non-finite result */
enum {
    FN_SIN, FN_COS, FN_TAN, FN_ASIN, FN_ACOS, FN_ATAN, FN_TANH, FN_SINH,
    FN_COSH, FN_ERF, FN_ERFC, FN_EXP, FN_LOG, FN_LOG2, FN_EXP2, FN_POW,
    FN_CHECKED,
    FN_SQRT = FN_CHECKED, FN_FABS, FN_FLOOR, FN_CEIL, FN_COPYSIGN,
    FN_FMAX, FN_FMIN, FN_STEP_GE
};

typedef struct {
    double *buf;  /* K*N lanes, allocated on first vector store */
    double s;     /* the value of a scalar */
    int8_t kind;
    int8_t hk;    /* varies along the config axis */
    int8_t hn;    /* varies along the input axis */
} Reg;

/* A tape stores its values in fixed blocks, so it grows without
 * copying (and without holding an old and a new buffer at once). */
typedef struct Block {
    struct Block *prev;
    int64_t used, cap;
    double data[];
} Block;

typedef struct {
    Block *top;
    Reg *hdr;   /* entry headers; buf points into a block */
    int64_t len, cap;
} Tape;

#define BLOCK_DOUBLES 65536

typedef struct {
    Reg *r;
    int64_t nr;
    int64_t K, N;
    Reg scratch;
    Tape *tapes;
    int64_t ntapes;
    /* buffers of registers that went back to scalars, for reuse: the
     * live buffers track the live vectors, as numpy's arrays would */
    double **pool;
    int64_t npool, cappool;
} VM;

typedef struct {
    const double *p;
    int64_t sk, sn;
} Src;

static inline double *data_of(Reg *r) { return (r->hk || r->hn) ? r->buf : &r->s; }

static inline double *data_of_shape(Reg *r, int hk, int hn)
{
    return (hk || hn) ? r->buf : &r->s;
}

static inline Src src_of(const VM *vm, Reg *r)
{
    Src s;
    s.p = data_of(r);
    s.sk = r->hk ? (r->hn ? vm->N : 1) : 0;
    s.sn = r->hn ? 1 : 0;
    return s;
}

static inline int64_t nlanes(const VM *vm, int hk, int hn)
{
    return (hk ? vm->K : 1) * (hn ? vm->N : 1);
}

static inline size_t buf_bytes(const VM *vm)
{
    return sizeof(double) * (size_t)(vm->K * vm->N);
}

static int ensure_buf(VM *vm, Reg *r)
{
    if (!r->buf) {
        if (vm->npool)
            r->buf = vm->pool[--vm->npool];
        else
            r->buf = (double *)malloc(buf_bytes(vm));
        if (!r->buf)
            return 0;
    }
    return 1;
}

/* r now holds a scalar: return its buffer to the pool */
static void drop_buf(VM *vm, Reg *r)
{
    if (!r->buf)
        return;
    if (vm->npool == vm->cappool) {
        int64_t cap = vm->cappool ? 2 * vm->cappool : 64;
        double **p = (double **)realloc(vm->pool, sizeof(double *) * (size_t)cap);
        if (!p)
            return; /* keep the buffer on the register */
        vm->pool = p;
        vm->cappool = cap;
    }
    vm->pool[vm->npool++] = r->buf;
    r->buf = NULL;
}

/* Point *d at the storage a result of shape (hk, hn) will occupy.
 * When d is also an operand held in a different vector layout, the
 * result goes to the scratch register and finish() swaps it in. */
static Reg *target(VM *vm, Reg *d, int hk, int hn, Reg *a, Reg *b, Reg *c)
{
    Reg *srcs[3] = {a, b, c};
    Reg *t = d;
    for (int i = 0; i < 3; i++) {
        Reg *s = srcs[i];
        if (s == d && (s->hk || s->hn) && (s->hk != hk || s->hn != hn))
            t = &vm->scratch;
    }
    if ((hk || hn) && !ensure_buf(vm, t))
        return NULL;
    return t;
}

static void finish(VM *vm, Reg *d, Reg *t, int kind, int hk, int hn)
{
    if (t != d) {
        double *tmp = d->buf;
        d->buf = t->buf;
        t->buf = tmp;
        d->s = t->s;
    }
    d->kind = (int8_t)kind;
    d->hk = (int8_t)hk;
    d->hn = (int8_t)hn;
    if (!(hk || hn))
        drop_buf(vm, d);
}

static int copy_reg(VM *vm, Reg *d, Reg *s)
{
    if (d == s)
        return LVM_OK;
    if (s->hk || s->hn) {
        if (!ensure_buf(vm, d))
            return LVM_NOMEM;
        memcpy(d->buf, s->buf, sizeof(double) * (size_t)nlanes(vm, s->hk, s->hn));
    } else {
        drop_buf(vm, d);
    }
    d->s = s->s;
    d->kind = s->kind;
    d->hk = s->hk;
    d->hn = s->hn;
    return LVM_OK;
}

/* d = s where s is dead: a vector moves its buffer instead of being
 * copied; a scalar is copied, so no buffer migrates into a register
 * that holds a scalar */
static int take_reg(VM *vm, Reg *d, Reg *s)
{
    if (d == s)
        return LVM_OK;
    if (!(s->hk || s->hn))
        return copy_reg(vm, d, s);
    Reg t = *d;
    *d = *s;
    *s = t;
    return LVM_OK;
}

/* Loops over the lanes of a result of shape (hk, hn) with nk x nn
 * lanes; A, B, C are Src operands, x, y, z their lane values, and
 * EXPR computes `double v`.  When every operand is a scalar or has the
 * result's own layout (the common case) the loop is flat and
 * contiguous; otherwise operands broadcast through their strides. */
#define FLATLIKE(S) \
    (((S).sk == 0 && (S).sn == 0) \
     || ((S).sk == (hk ? nn : 0) && (S).sn == (hn ? 1 : 0)))
#define AT(S, i) ((S).sn | (S).sk ? (S).p[i] : (S).p[0])

#define LANES1(EXPR)                                                    \
    if (FLATLIKE(A)) {                                                  \
        int64_t L = nk * nn;                                            \
        if (A.sk | A.sn) {                                              \
            for (int64_t i = 0; i < L; i++) {                           \
                double x = A.p[i], v;                                   \
                EXPR;                                                   \
                out[i] = v;                                             \
            }                                                           \
        } else {                                                        \
            double x = A.p[0], v;                                       \
            EXPR;                                                       \
            for (int64_t i = 0; i < L; i++)                             \
                out[i] = v;                                             \
        }                                                               \
    } else {                                                            \
        for (int64_t k = 0; k < nk; k++) {                              \
            const double *pa = A.p + k * A.sk;                          \
            double *po = out + k * nn;                                  \
            for (int64_t n = 0; n < nn; n++) {                          \
                double x = pa[n * A.sn], v;                             \
                EXPR;                                                   \
                po[n] = v;                                              \
            }                                                           \
        }                                                               \
    }
#define LANES2(EXPR)                                                    \
    if (FLATLIKE(A) && FLATLIKE(B)) {                                   \
        int64_t L = nk * nn;                                            \
        int fa = (A.sk | A.sn) != 0, fb = (B.sk | B.sn) != 0;           \
        if (fa && fb) {                                                 \
            for (int64_t i = 0; i < L; i++) {                           \
                double x = A.p[i], y = B.p[i], v;                       \
                EXPR;                                                   \
                out[i] = v;                                             \
            }                                                           \
        } else if (fa) {                                                \
            double y = B.p[0];                                          \
            for (int64_t i = 0; i < L; i++) {                           \
                double x = A.p[i], v;                                   \
                EXPR;                                                   \
                out[i] = v;                                             \
            }                                                           \
        } else {                                                        \
            double x = A.p[0];                                          \
            for (int64_t i = 0; i < L; i++) {                           \
                double y = AT(B, i), v;                                 \
                EXPR;                                                   \
                out[i] = v;                                             \
            }                                                           \
        }                                                               \
    } else {                                                            \
        for (int64_t k = 0; k < nk; k++) {                              \
            const double *pa = A.p + k * A.sk, *pb = B.p + k * B.sk;    \
            double *po = out + k * nn;                                  \
            for (int64_t n = 0; n < nn; n++) {                          \
                double x = pa[n * A.sn], y = pb[n * B.sn], v;           \
                EXPR;                                                   \
                po[n] = v;                                              \
            }                                                           \
        }                                                               \
    }

/* CPython's float divmod (Objects/floatobject.c), which numpy's
 * npy_divmod copies for nonzero divisors */
static inline void py_divmod(double a, double b, double *fdiv, double *fmodv)
{
    double mod = fmod(a, b);
    double div = (a - mod) / b;
    double fd;
    if (mod) {
        if ((b < 0) != (mod < 0)) {
            mod += b;
            div -= 1.0;
        }
    } else {
        mod = copysign(0.0, b);
    }
    if (div) {
        fd = floor(div);
        if (div - fd > 0.5)
            fd += 1.0;
    } else {
        fd = copysign(0.0, a / b);
    }
    *fdiv = fd;
    *fmodv = mod;
}

static int result_kind_arith(int ka, int kb)
{
    return (ka == KF || kb == KF) ? KF : KI;
}

/* numpy's where/fmax result type: float beats int beats bool */
static int where_kind(int ka, int kb)
{
    if (ka == KF || kb == KF)
        return KF;
    if (ka == KI || kb == KI)
        return KI;
    return KB;
}

/* int results: drop the sign of zero (Python ints have none) and
 * replay past the exactly representable range */
static int int_fixup(double *out, int64_t len)
{
    int bad = 0;
    for (int64_t i = 0; i < len; i++) {
        double v = out[i] + 0.0;
        out[i] = v;
        bad |= !(fabs(v) < INT_LIMIT);
    }
    return bad;
}

static int any_zero(const Reg *r, int64_t len)
{
    const double *p = (r->hk || r->hn) ? r->buf : &r->s;
    for (int64_t i = 0; i < len; i++)
        if (p[i] == 0.0)
            return 1;
    return 0;
}

static int binop(VM *vm, int op, Reg *d, Reg *a, Reg *b)
{
    if (a->kind == KN || b->kind == KN)
        return LVM_REPLAY;
    int hk = a->hk | b->hk, hn = a->hn | b->hn;
    int vec = hk || hn;
    int kind;
    if (op >= OP_EQ && op <= OP_OR) {
        kind = KB;
    } else {
        /* bool-bool arithmetic differs between Python and numpy */
        if (a->kind == KB && b->kind == KB)
            return LVM_REPLAY;
        kind = op == OP_DIV ? KF : result_kind_arith(a->kind, b->kind);
        if (op == OP_DIV && !vec && b->s == 0.0)
            return LVM_REPLAY; /* Python raises ZeroDivisionError */
        if ((op == OP_FLOORDIV || op == OP_MOD)
            && any_zero(b, nlanes(vm, b->hk, b->hn)))
            return LVM_REPLAY;
    }
    Src A = src_of(vm, a), B = src_of(vm, b);
    Reg *t = target(vm, d, hk, hn, a, b, NULL);
    if (!t)
        return LVM_NOMEM;
    double *out = data_of_shape(t, hk, hn);
    int64_t nk = hk ? vm->K : 1, nn = hn ? vm->N : 1;
    switch (op) {
    case OP_ADD: LANES2(v = x + y); break;
    case OP_SUB: LANES2(v = x - y); break;
    case OP_MUL: LANES2(v = x * y); break;
    case OP_DIV: LANES2(v = x / y); break;
    case OP_FLOORDIV: LANES2(double m; py_divmod(x, y, &v, &m)); break;
    case OP_MOD: LANES2(double q; py_divmod(x, y, &q, &v)); break;
    case OP_EQ: LANES2(v = (x == y) ? 1.0 : 0.0); break;
    case OP_NE: LANES2(v = (x != y) ? 1.0 : 0.0); break;
    case OP_LT: LANES2(v = (x < y) ? 1.0 : 0.0); break;
    case OP_LE: LANES2(v = (x <= y) ? 1.0 : 0.0); break;
    case OP_GT: LANES2(v = (x > y) ? 1.0 : 0.0); break;
    case OP_GE: LANES2(v = (x >= y) ? 1.0 : 0.0); break;
    case OP_AND: LANES2(v = (x != 0.0 && y != 0.0) ? 1.0 : 0.0); break;
    case OP_OR: LANES2(v = (x != 0.0 || y != 0.0) ? 1.0 : 0.0); break;
    default: return LVM_REPLAY;
    }
    if (kind == KI && int_fixup(out, nk * nn))
        return LVM_REPLAY;
    finish(vm, d, t, kind, hk, hn);
    return LVM_OK;
}

#define LANES3(EXPR)                                                    \
    if (FLATLIKE(A) && FLATLIKE(B) && FLATLIKE(C)) {                    \
        int64_t L = nk * nn;                                            \
        for (int64_t i = 0; i < L; i++) {                               \
            double x = AT(A, i), y = AT(B, i), z = AT(C, i), v;         \
            EXPR;                                                       \
            out[i] = v;                                                 \
        }                                                               \
    } else {                                                            \
        for (int64_t k = 0; k < nk; k++) {                              \
            const double *pa = A.p + k * A.sk, *pb = B.p + k * B.sk;    \
            const double *pc = C.p + k * C.sk;                          \
            double *po = out + k * nn;                                  \
            for (int64_t n = 0; n < nn; n++) {                          \
                double x = pa[n * A.sn], y = pb[n * B.sn];              \
                double z = pc[n * C.sn], v;                             \
                EXPR;                                                   \
                po[n] = v;                                              \
            }                                                           \
        }                                                               \
    }

static int unop(VM *vm, int op, Reg *d, Reg *a)
{
    if (a->kind == KN)
        return LVM_REPLAY;
    int hk = a->hk, hn = a->hn, kind;
    switch (op) {
    case OP_NEG:
        if (a->kind == KB)
            return LVM_REPLAY; /* numpy refuses to negate bools */
        kind = a->kind;
        break;
    case OP_NOT: kind = KB; break;
    case OP_CI64: kind = KI; break;
    default: kind = KF; break;
    }
    Src A = src_of(vm, a);
    Reg *t = target(vm, d, hk, hn, a, NULL, NULL);
    if (!t)
        return LVM_NOMEM;
    double *out = data_of_shape(t, hk, hn);
    int64_t nk = hk ? vm->K : 1, nn = hn ? vm->N : 1;
    int bad = 0;
    switch (op) {
    case OP_NEG: LANES1(v = -x); break;
    case OP_NOT: LANES1(v = (x == 0.0) ? 1.0 : 0.0); break;
    case OP_C32: LANES1(v = (double)(float)x); break;
    case OP_C16: LANES1(v = (double)(_Float16)x); break;
    case OP_CI64:
        /* int() raises on inf/nan; astype(int64) wraps past 2**63 */
        LANES1(v = trunc(x); bad |= !(fabs(v) < INT_LIMIT));
        break;
    default: return LVM_REPLAY;
    }
    if (bad || (kind == KI && int_fixup(out, nk * nn)))
        return LVM_REPLAY;
    finish(vm, d, t, kind, hk, hn);
    return LVM_OK;
}

/* _rnd(selector, x): per config row keep, binary32 or binary16 */
static int round_lanes(VM *vm, Reg *d, Reg *a, const uint8_t *codes)
{
    if (a->kind == KN)
        return LVM_REPLAY;
    int hk = 1, hn = a->hn;
    Src A = src_of(vm, a);
    Reg *t = target(vm, d, hk, hn, a, NULL, NULL);
    if (!t)
        return LVM_NOMEM;
    double *out = t->buf;
    int64_t nn = hn ? vm->N : 1;
    for (int64_t k = 0; k < vm->K; k++) {
        const double *pa = A.p + k * A.sk;
        double *po = out + k * nn;
        if (A.sn == 0) {
            double x = pa[0];
            double v = codes[k] == 1 ? (double)(float)x
                       : codes[k] == 2 ? (double)(_Float16)x : x;
            for (int64_t n = 0; n < nn; n++)
                po[n] = v;
            continue;
        }
        switch (codes[k]) {
        case 1:
            for (int64_t n = 0; n < nn; n++)
                po[n] = (double)(float)pa[n];
            break;
        case 2:
            for (int64_t n = 0; n < nn; n++)
                po[n] = (double)(_Float16)pa[n];
            break;
        default:
            if (po != pa)
                memcpy(po, pa, sizeof(double) * (size_t)nn);
        }
    }
    finish(vm, d, t, KF, hk, hn);
    return LVM_OK;
}

static int where_op(VM *vm, Reg *d, Reg *m, Reg *a, Reg *b)
{
    if (m->kind == KN || a->kind == KN || b->kind == KN)
        return LVM_REPLAY;
    int hk = m->hk | a->hk | b->hk, hn = m->hn | a->hn | b->hn;
    int kind = where_kind(a->kind, b->kind);
    Src A = src_of(vm, m), B = src_of(vm, a), C = src_of(vm, b);
    Reg *t = target(vm, d, hk, hn, m, a, b);
    if (!t)
        return LVM_NOMEM;
    double *out = data_of_shape(t, hk, hn);
    int64_t nk = hk ? vm->K : 1, nn = hn ? vm->N : 1;
    LANES3(v = (x != 0.0) ? y : z);
    finish(vm, d, t, kind, hk, hn);
    return LVM_OK;
}

static double pow2(double p) { return pow(2.0, p); }

static int call_op(VM *vm, Reg *d, int fn, Reg *a, Reg *b)
{
    int binary = b != NULL;
    if (!binary)
        b = a;
    if (a->kind == KN || b->kind == KN || a->kind == KB || b->kind == KB)
        return LVM_REPLAY;
    int hk = a->hk | b->hk, hn = a->hn | b->hn, kind = KF;
    if (fn == FN_FLOOR || fn == FN_CEIL)
        kind = a->kind; /* numpy keeps integer dtypes */
    else if (fn == FN_FMAX || fn == FN_FMIN)
        kind = where_kind(a->kind, b->kind);
    Src A = src_of(vm, a), B = src_of(vm, b);
    Reg *t = target(vm, d, hk, hn, a, b, NULL);
    if (!t)
        return LVM_NOMEM;
    double *out = data_of_shape(t, hk, hn);
    int64_t nk = hk ? vm->K : 1, nn = hn ? vm->N : 1;
    int bad = 0;
    /* math.* raises where libm returns a non-finite value from
     * non-NaN arguments: replay those on the numpy path */
#define CHECKED1(F) LANES1(v = F(x); bad |= !isfinite(v) && !isnan(x))
#define CHECKED2(F) \
    LANES2(v = F(x, y); bad |= !isfinite(v) && !isnan(x) && !isnan(y))
    switch (fn) {
    case FN_SIN: CHECKED1(sin); break;
    case FN_COS: CHECKED1(cos); break;
    case FN_TAN: CHECKED1(tan); break;
    case FN_ASIN: CHECKED1(asin); break;
    case FN_ACOS: CHECKED1(acos); break;
    case FN_ATAN: CHECKED1(atan); break;
    case FN_TANH: CHECKED1(tanh); break;
    case FN_SINH: CHECKED1(sinh); break;
    case FN_COSH: CHECKED1(cosh); break;
    case FN_ERF: CHECKED1(erf); break;
    case FN_ERFC: CHECKED1(erfc); break;
    case FN_EXP: CHECKED1(exp); break;
    case FN_LOG: CHECKED1(log); break;
    case FN_LOG2: CHECKED1(log2); break;
    case FN_EXP2: CHECKED1(pow2); break;
    case FN_POW: CHECKED2(pow); break;
    case FN_SQRT: LANES1(v = sqrt(x)); break;
    case FN_FABS: LANES1(v = fabs(x)); break;
    case FN_FLOOR: LANES1(v = floor(x)); break;
    case FN_CEIL: LANES1(v = ceil(x)); break;
    case FN_COPYSIGN: LANES2(v = copysign(x, y)); break;
    /* Python's max/min: NaN-propagating comparison-select, not fmax */
    case FN_FMAX: LANES2(v = (y > x) ? y : x); break;
    case FN_FMIN: LANES2(v = (y < x) ? y : x); break;
    case FN_STEP_GE: LANES2(v = (x >= y) ? 1.0 : 0.0); break;
    default: return LVM_REPLAY;
    }
#undef CHECKED1
#undef CHECKED2
    if (bad)
        return LVM_REPLAY;
    finish(vm, d, t, kind, hk, hn);
    return LVM_OK;
}

/* -- tapes ------------------------------------------------------------ */

static int tape_push(VM *vm, Tape *tp, Reg *a)
{
    int64_t n = (a->hk || a->hn) ? nlanes(vm, a->hk, a->hn) : 1;
    if (tp->len == tp->cap) {
        int64_t cap = tp->cap ? 2 * tp->cap : 64;
        Reg *h = (Reg *)realloc(tp->hdr, sizeof(Reg) * (size_t)cap);
        if (!h)
            return LVM_NOMEM;
        tp->hdr = h;
        tp->cap = cap;
    }
    Block *b = tp->top;
    if (!b || b->cap - b->used < n) {
        int64_t cap = n > BLOCK_DOUBLES ? n : BLOCK_DOUBLES;
        b = (Block *)malloc(sizeof(Block) + sizeof(double) * (size_t)cap);
        if (!b)
            return LVM_NOMEM;
        b->prev = tp->top;
        b->used = 0;
        b->cap = cap;
        tp->top = b;
    }
    Reg *h = &tp->hdr[tp->len++];
    *h = *a;
    h->buf = b->data + b->used;
    memcpy(h->buf, data_of(a), sizeof(double) * (size_t)n);
    b->used += n;
    return LVM_OK;
}

static int tape_pop(VM *vm, Tape *tp, Reg *d)
{
    if (tp->len == 0)
        return LVM_REPLAY; /* pop from an empty list raises */
    Reg *h = &tp->hdr[--tp->len];
    int64_t n = (h->hk || h->hn) ? nlanes(vm, h->hk, h->hn) : 1;
    int st = LVM_OK;
    if (d) {
        if ((h->hk || h->hn) && !ensure_buf(vm, d))
            return LVM_NOMEM;
        memcpy(data_of_shape(d, h->hk, h->hn), h->buf,
               sizeof(double) * (size_t)n);
        d->kind = h->kind;
        d->hk = h->hk;
        d->hn = h->hn;
        if (!(h->hk || h->hn))
            drop_buf(vm, d);
    }
    Block *b = tp->top;
    b->used -= n;
    if (b->used == 0) {
        tp->top = b->prev;
        free(b);
    }
    return st;
}

static void tape_free(Tape *tp)
{
    while (tp->top) {
        Block *b = tp->top;
        tp->top = b->prev;
        free(b);
    }
    free(tp->hdr);
}

/* -- entry point ------------------------------------------------------ */

/* release a returned vector */
void lanevm_free(void *p) { free(p); }


static int scalar_int(const Reg *r, double *v)
{
    if (r->hk || r->hn || (r->kind != KI && r->kind != KB))
        return 0;
    *v = r->s;
    return 1;
}

/*
 * hdr:    nregs, K, N, nparams, nstacks
 * pdesc:  per parameter (mode, kind, offset, length); mode 0 scalar
 *         pdata[offset], 1 input column of N doubles at address
 *         `offset`, 2 array of `length` elements pdata[offset..] with
 *         kinds pekind[offset..]
 * sel:    per rounding site K codes (0 keep, 1 f32, 2 f16); sel_on[i]
 *         is 0 where the site's selector is None
 * cs, ch: per constant / charge site K values; *_row[i] is 0 where the
 *         site is lane-uniform (value at [i*K])
 * out:    returned scalars, one slot per value; outmeta[0] = count,
 *         then per value (kind, hk, hn, buffer): a vector's buffer is
 *         the caller's to release with lanevm_free
 */
int lanevm_run(const int32_t *code, const double *imm, const int8_t *imm_kind,
               const int64_t *hdr, const int64_t *pdesc, const double *pdata,
               const int8_t *pekind, const uint8_t *sel, const uint8_t *sel_on,
               const double *cs, const uint8_t *cs_row, const double *ch,
               const uint8_t *ch_row, double *out, int64_t *outmeta)
{
    VM vm;
    int64_t nregs = hdr[0], nparams = hdr[3], nslots = 0;
    vm.K = hdr[1];
    vm.N = hdr[2];
    vm.ntapes = hdr[4];
    for (int64_t p = 0; p < nparams; p++)
        if (pdesc[4 * p] == 2)
            nslots += pdesc[4 * p + 3];
    vm.nr = nregs + nslots;
    vm.r = (Reg *)calloc((size_t)(vm.nr ? vm.nr : 1), sizeof(Reg));
    vm.tapes = (Tape *)calloc((size_t)(vm.ntapes ? vm.ntapes : 1), sizeof(Tape));
    int64_t *abase = (int64_t *)calloc((size_t)(nparams ? nparams : 1), sizeof(int64_t));
    memset(&vm.scratch, 0, sizeof(Reg));
    vm.pool = NULL;
    vm.npool = vm.cappool = 0;
    int st = LVM_OK;
    if (!vm.r || !vm.tapes || !abase) {
        st = LVM_NOMEM;
        goto done;
    }
    for (int64_t i = 0; i < vm.nr; i++)
        vm.r[i].kind = KN;

    /* parameters */
    int64_t slot = nregs;
    for (int64_t p = 0; p < nparams; p++) {
        const int64_t *pd = pdesc + 4 * p;
        Reg *r = &vm.r[p];
        if (pd[0] == 0) {
            r->s = pdata[pd[2]];
            r->kind = (int8_t)pd[1];
        } else if (pd[0] == 1) {
            if (!ensure_buf(&vm, r)) {
                st = LVM_NOMEM;
                goto done;
            }
            memcpy(r->buf, (const double *)(intptr_t)pd[2],
                   sizeof(double) * (size_t)vm.N);
            r->kind = (int8_t)pd[1];
            r->hn = 1;
        } else {
            abase[p] = slot;
            for (int64_t j = 0; j < pd[3]; j++, slot++) {
                vm.r[slot].s = pdata[pd[2] + j];
                vm.r[slot].kind = pekind[pd[2] + j];
            }
        }
    }

    int64_t pc = 0;
    outmeta[0] = 0;
    for (;;) {
        const int32_t *in = code + pc;
        Reg *R = vm.r;
        switch (in[0]) {
        case OP_LDI: {
            Reg *d = &R[in[1]];
            d->s = imm[in[2]];
            d->kind = imm_kind[in[2]];
            d->hk = d->hn = 0;
            drop_buf(&vm, d);
            pc += 3;
            break;
        }
        case OP_LDCS:
        case OP_LDCH: {
            const double *vals = in[0] == OP_LDCS ? cs : ch;
            const uint8_t *row = in[0] == OP_LDCS ? cs_row : ch_row;
            Reg *d = &R[in[1]];
            const double *v = vals + (int64_t)in[2] * vm.K;
            d->kind = KF;
            d->hn = 0;
            if (row[in[2]]) {
                if (!ensure_buf(&vm, d)) {
                    st = LVM_NOMEM;
                    goto done;
                }
                memcpy(d->buf, v, sizeof(double) * (size_t)vm.K);
                d->hk = 1;
            } else {
                d->s = v[0];
                d->hk = 0;
                drop_buf(&vm, d);
            }
            pc += 3;
            break;
        }
        case OP_MOV:
            st = copy_reg(&vm, &R[in[1]], &R[in[2]]);
            pc += 3;
            break;
        case OP_TAKE:
            st = take_reg(&vm, &R[in[1]], &R[in[2]]);
            pc += 3;
            break;
        case OP_ADD: case OP_SUB: case OP_MUL: case OP_DIV:
        case OP_FLOORDIV: case OP_MOD: case OP_EQ: case OP_NE:
        case OP_LT: case OP_LE: case OP_GT: case OP_GE:
        case OP_AND: case OP_OR:
            st = binop(&vm, in[0], &R[in[1]], &R[in[2]], &R[in[3]]);
            pc += 4;
            break;
        case OP_NEG: case OP_NOT: case OP_C32: case OP_C16: case OP_CI64:
            st = unop(&vm, in[0], &R[in[1]], &R[in[2]]);
            pc += 3;
            break;
        case OP_RND: {
            Reg *d = &R[in[1]], *a = &R[in[3]];
            if (sel_on[in[2]])
                st = round_lanes(&vm, d, a, sel + (int64_t)in[2] * vm.K);
            else if (in[4])
                st = take_reg(&vm, d, a);
            else
                st = copy_reg(&vm, d, a);
            pc += 5;
            break;
        }
        case OP_WHERE:
            st = where_op(&vm, &R[in[1]], &R[in[2]], &R[in[3]], &R[in[4]]);
            pc += 5;
            break;
        case OP_CALL:
            st = call_op(&vm, &R[in[1]], in[2], &R[in[3]],
                         in[4] < 0 ? NULL : &R[in[4]]);
            pc += 5;
            break;
        case OP_PUSH:
            st = tape_push(&vm, &vm.tapes[in[1]], &R[in[2]]);
            pc += 3;
            break;
        case OP_POP:
            st = tape_pop(&vm, &vm.tapes[in[2]], in[1] < 0 ? NULL : &R[in[1]]);
            pc += 3;
            break;
        case OP_JMP:
            pc = in[1];
            break;
        case OP_JF: {
            Reg *c = &R[in[1]];
            /* `if array:` is ambiguous in Python: lane-uniform only */
            if (c->kind == KN || c->hk || c->hn) {
                st = LVM_REPLAY;
                break;
            }
            pc = (c->s != 0.0) ? pc + 3 : in[2];
            break;
        }
        case OP_FORPREP: {
            double lo, hi, step;
            if (!scalar_int(&R[in[2]], &lo) || !scalar_int(&R[in[3]], &hi)
                || !scalar_int(&R[in[4]], &step) || step == 0.0) {
                st = LVM_REPLAY; /* range() raises */
                break;
            }
            Reg *h = &R[in[1]];
            h[0].s = lo;
            h[1].s = hi;
            h[2].s = step;
            pc += 5;
            break;
        }
        case OP_FORNEXT: {
            Reg *h = &R[in[2]];
            double cur = h[0].s, hi = h[1].s, step = h[2].s;
            if (step > 0 ? cur < hi : cur > hi) {
                Reg *v = &R[in[1]];
                v->s = cur + 0.0;
                v->kind = KI;
                v->hk = v->hn = 0;
                h[0].s = cur + step;
                pc += 4;
            } else {
                pc = in[3];
            }
            break;
        }
        case OP_LDX:
        case OP_STX: {
            int ld = in[0] == OP_LDX;
            const int64_t *pd = pdesc + 4 * (int64_t)in[ld ? 2 : 1];
            double idx;
            if (pd[0] != 2 || !scalar_int(&R[in[ld ? 3 : 2]], &idx)
                || idx < 0 || idx >= (double)pd[3]) {
                st = LVM_REPLAY; /* IndexError, or a negative index */
                break;
            }
            Reg *s = &R[abase[in[ld ? 2 : 1]] + (int64_t)idx];
            st = ld ? copy_reg(&vm, &R[in[1]], s) : copy_reg(&vm, s, &R[in[3]]);
            pc += 4;
            break;
        }
        case OP_RET: {
            /* vectors hand their buffers over (the caller frees them
             * with lanevm_free), so returning costs no copy and no
             * second set of result arrays */
            int64_t n = in[1];
            outmeta[0] = n;
            for (int64_t j = 0; j < n; j++) {
                Reg *r = &R[in[2 + j]];
                int64_t *m = outmeta + 1 + 4 * j;
                m[0] = r->kind;
                m[1] = r->hk;
                m[2] = r->hn;
                m[3] = 0;
                if (!(r->hk || r->hn)) {
                    out[j] = r->s;
                    continue;
                }
                double *p = r->buf;
                for (int64_t i = 0; i < j; i++) {
                    if (in[2 + i] == in[2 + j]) { /* returned twice */
                        size_t bytes = sizeof(double)
                                       * (size_t)nlanes(&vm, r->hk, r->hn);
                        p = (double *)malloc(buf_bytes(&vm));
                        if (!p) {
                            st = LVM_NOMEM;
                            goto done;
                        }
                        memcpy(p, (double *)(intptr_t)outmeta[4 + 4 * i], bytes);
                        break;
                    }
                }
                if (p == r->buf)
                    r->buf = NULL;
                m[3] = (int64_t)(intptr_t)p;
            }
            goto done;
        }
        case OP_DROP:
        case OP_DROPL: {
            const int32_t *l = in[0] == OP_DROP ? in + 1 : code + in[1];
            for (int64_t j = 0; j < l[0]; j++) {
                Reg *r = &R[l[1 + j]];
                drop_buf(&vm, r);
                r->kind = KN; /* dead: a stray read replays */
                r->hk = r->hn = 0;
            }
            pc += in[0] == OP_DROP ? 2 + in[1] : 2;
            break;
        }
        default:
            st = LVM_REPLAY;
        }
        if (st != LVM_OK)
            goto done;
    }
done:
    if (vm.r)
        for (int64_t i = 0; i < vm.nr; i++)
            free(vm.r[i].buf);
    free(vm.scratch.buf);
    for (int64_t i = 0; i < vm.npool; i++)
        free(vm.pool[i]);
    free(vm.pool);
    if (vm.tapes)
        for (int64_t i = 0; i < vm.ntapes; i++)
            tape_free(&vm.tapes[i]);
    free(vm.r);
    free(vm.tapes);
    free(abase);
    return st;
}
