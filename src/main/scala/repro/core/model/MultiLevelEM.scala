package repro.core.model

import repro.core.linalg.Mat

/** Fitted multi-level model (Section 3.2 / Appendix D):
  *   y_i = X_i beta + Z_i b_i + eps_i,  b_i ~ N(0, Sigma), eps ~ N(0, s2 I)
  * with Z_i = X_i[:, reCols] — the paper's tunable random-effect matrix
  * (Section 3.3.4); `reCols` defaults to all columns (Z_i = X_i).
  * `ridgeEscalations` counts the cluster solves, over all iterations, that
  * needed a larger ridge than the first one.
  */
final case class MultiLevelFit(
    beta: Array[Double],
    sigma: Mat,
    sigma2: Double,
    bs: Array[Array[Double]],
    reCols: Array[Int],
    iterations: Int,
    ridgeEscalations: Int = 0,
)

/** EM training for the multi-level linear model over any MLBackend.
  *
  * The updates are Appendix D's, computed from sufficient statistics
  * (the aggregate pushdown of factorised learning: Schleich, Olteanu and
  * Ciucanu, SIGMOD 2016). Once per fit the backend supplies X^T X, the OLS
  * fit beta0 with its residual r0 = y - X beta0, X^T r0, |r0|² and, per
  * cluster i, the S rows of X_i^T X_i and the S-slice of X_i^T r0_i, where
  * S is the random-effect column set. Every iteration is then one pass over
  * the clusters, O(clusters · s · m) plus one s x s solve per cluster, and
  * forms no n-vector. With beta = beta0 + d:
  *   Z_i^T r_i  = (X_i^T r0_i)[S] - X_i^T X_i[S,:] d
  *   d'         = -(X^T X)^-1 sum_i X_i^T Z_i b_i
  *   |y - X beta|² = |r0|² - 2 d^T X^T r0 + d^T X^T X d
  * Statistics of r0 rather than of y keep these quadratic forms free of
  * cancellation when y is large against its residual.
  */
object MultiLevelEM {

  def fit(
      bk: MLBackend,
      y: Array[Double],
      iters: Int = 20,
      ridge: Double = 1e-8,
      reCols: Option[Array[Int]] = None,
  ): MultiLevelFit = {
    require(y.length == bk.n, s"y length ${y.length} != n ${bk.n}")
    val m = bk.m
    val g = bk.numClusters
    val re: Array[Int] = reCols.getOrElse(Array.range(0, m))
    require(re.forall(j => j >= 0 && j < m), "bad random-effect column index")
    val s = re.length

    // Once per fit: X^T X (+ inverse), the OLS fit and the statistics of its residual.
    val gram = bk.gram
    val gramInv = Mat.ridgeInverse(gram, ridge)
    val beta0 = gramInv.mv(bk.xtv(y))
    val r0 = bk.xv(beta0)
    var k = 0
    while (k < r0.length) { r0(k) = y(k) - r0(k); k += 1 }
    val xtr0 = bk.xtv(r0)
    val rss0 = Mat.dot(r0, r0)
    def rss(d: Array[Double]): Double = rss0 - 2.0 * Mat.dot(d, xtr0) + Mat.dot(d, gram.mv(d))
    val stats = new ClusterStats(bk, r0, re)

    // Init: OLS beta (d = 0); residual variance; Sigma = sigma2 * I.
    var d = new Array[Double](m)
    var sigma2 = math.max(rss0 / bk.n, 1e-9)
    var sigma = Mat.eye(s) * sigma2
    val bs = new Array[Double](g * s)
    var escalations = 0

    var it = 0
    while (it < iters) {
      // E-step, accumulating the M-step's sums on the fly
      val sums = stats.eStep(d, sigma2, Mat.ridgeInverse(sigma, ridge), ridge, bs)
      // M-step
      d = gramInv.mv(sums.q).map(-_)
      sigma = new Mat(s, s, sums.sig.map(_ / g))
      val rzb = sums.a - Mat.dot(d, sums.q) // (y - X beta)^T Z b
      sigma2 = math.max((rss(d) + sums.tr - 2.0 * rzb) / bk.n, 1e-12)
      escalations += sums.escalations
      it += 1
    }
    MultiLevelFit(Array.tabulate(m)(j => beta0(j) + d(j)), sigma, sigma2,
      Array.tabulate(g)(i => bs.slice(i * s, i * s + s)), re, iters, escalations)
  }

  /** The E-step's contribution to the M-step, summed over clusters:
    * sig = sum_i (V_i + b_i b_i^T), tr = sum_i tr(Z_i^T Z_i (V_i + b_i b_i^T)),
    * q = sum_i X_i^T Z_i b_i and a = sum_i (Z_i^T r0_i) . b_i.
    */
  private final class Sums(val sig: Array[Double], var tr: Double, val q: Array[Double], var a: Double,
                           var escalations: Int)

  /** Per-cluster sufficient statistics, flattened over clusters: the S rows
    * of X_i^T X_i (s x m, row-major) and the S-slice of X_i^T r0_i. That is
    * g·s·(m+1) doubles.
    */
  private final class ClusterStats(bk: MLBackend, r0: Array[Double], re: Array[Int]) {
    private val m = bk.m
    private val g = bk.numClusters
    private val s = re.length
    private val gRows: Array[Double] = {
      val out = new Array[Double](g * s * m)
      bk.foreachClusterGram { (i, gi) =>
        var k = 0
        while (k < s) { System.arraycopy(gi.a, re(k) * m, out, (i * s + k) * m, m); k += 1 }
      }
      out
    }
    private val ztr0: Array[Double] = {
      val xtr0i = bk.clusterXtv(r0)
      Array.tabulate(g * s)(x => xtr0i(x / s)(re(x % s)))
    }

    /** One pass over the clusters: writes each b_i into `bs` and returns
      * the sums.
      */
    def eStep(dBeta: Array[Double], sigma2: Double, sigmaInv: Mat, ridge: Double, bs: Array[Double]): Sums = {
      val out = new Sums(new Array[Double](s * s), 0.0, new Array[Double](m), 0.0, 0)
      val sigAcc = out.sig
      val q = out.q
      val zr = new Array[Double](s)
      val wBuf = new Array[Double](s * s)
      val vBuf = new Array[Double](s * s)
      var i = 0
      while (i < g) {
        val gOff = i * s * m
        // Z_i^T r_i = (X_i^T r0_i)[S] - X_i^T X_i[S,:] dBeta
        var j = 0
        while (j < s) {
          var acc = ztr0(i * s + j)
          var k = 0
          while (k < m) { acc -= gRows(gOff + j * m + k) * dBeta(k); k += 1 }
          zr(j) = acc
          j += 1
        }
        // wBuf := Z_i^T Z_i / sigma2 + Sigma^{-1} (+ escalating ridge on failure)
        val scale = {
          var t = 0.0; var d = 0
          while (d < s) { t += math.abs(gRows(gOff + d * m + re(d)) / sigma2 + sigmaInv(d, d)); d += 1 }
          math.max(t / s, 1.0)
        }
        var lambda = math.max(ridge, 1e-12) * scale
        var ok = false
        var attempt = 0
        while (!ok && attempt < 6) {
          j = 0
          while (j < s) {
            var k = 0
            while (k < s) { wBuf(j * s + k) = gRows(gOff + j * m + re(k)) / sigma2 + sigmaInv.a(j * s + k); k += 1 }
            wBuf(j * s + j) += lambda
            j += 1
          }
          java.util.Arrays.fill(vBuf, 0.0)
          var d = 0
          while (d < s) { vBuf(d * s + d) = 1.0; d += 1 }
          ok = Mat.eliminate(wBuf, vBuf, s)
          lambda *= 1e3
          attempt += 1
        }
        require(ok, "cluster covariance not invertible")
        if (attempt > 1) out.escalations += 1
        // b_i = V_i (Z_i^T r_i) / sigma2
        val bOff = i * s
        j = 0
        while (j < s) {
          var acc = 0.0
          var k = 0
          while (k < s) { acc += vBuf(j * s + k) * zr(k); k += 1 }
          bs(bOff + j) = acc / sigma2
          j += 1
        }
        // V_i + b_i b_i^T into Sigma's sum, tr(Z_i^T Z_i (V_i + b_i b_i^T)) into the trace
        var t = 0.0
        j = 0
        while (j < s) {
          var k = 0
          while (k < s) {
            val bbt = vBuf(j * s + k) + bs(bOff + j) * bs(bOff + k)
            sigAcc(j * s + k) += bbt
            t += gRows(gOff + j * m + re(k)) * bbt
            k += 1
          }
          j += 1
        }
        out.tr += t
        // X_i^T Z_i b_i into q, (Z_i^T r0_i) . b_i into a
        j = 0
        while (j < s) {
          val bj = bs(bOff + j)
          var k = 0
          while (k < m) { q(k) += gRows(gOff + j * m + k) * bj; k += 1 }
          out.a += ztr0(i * s + j) * bj
          j += 1
        }
        i += 1
      }
      out
    }
  }

  /** yhat = X beta + Z b (fixed + random effects). */
  def predict(bk: MLBackend, fit: MultiLevelFit): Array[Double] = {
    val fixed = bk.xv(fit.beta)
    val rand = bk.clusterXa(fit.bs.map(pad(_, fit.reCols, bk.m)))
    add(fixed, rand)
  }

  /** Marginal Gaussian log-likelihood: per cluster,
    * y_i ~ N(X_i beta, Z_i Sigma Z_i^T + sigma2 I). Used for AIC.
    */
  def logLikelihood(bk: MLBackend, y: Array[Double], fit: MultiLevelFit): Double = {
    var ll = 0.0
    var i = 0
    while (i < bk.numClusters) {
      val (s, l) = bk.clusterRanges(i)
      val xi = bk.clusterMat(i)
      val zi = subcolumns(xi, fit.reCols)
      val v = (zi * fit.sigma) * zi.t + (Mat.eye(l) * fit.sigma2)
      val mu = xi.mv(fit.beta)
      val r = Array.tabulate(l)(k => y(s + k) - mu(k))
      val vinv = Mat.ridgeInverse(v, 1e-10)
      val quad = Mat.dot(r, vinv.mv(r))
      ll += -0.5 * (l * math.log(2 * math.Pi) + Mat.logDet(v) + quad)
      i += 1
    }
    ll
  }

  /** AIC = 2k - 2 lnL; k = fixed effects + Sigma parameters + sigma2. */
  def aic(bk: MLBackend, y: Array[Double], fit: MultiLevelFit): Double = {
    val s = fit.reCols.length
    val k = bk.m + s * (s + 1) / 2 + 1
    2.0 * k - 2.0 * logLikelihood(bk, y, fit)
  }

  // ------------------------------------------------------------- helpers
  private def subcolumns(mt: Mat, idx: Array[Int]): Mat = {
    val out = Mat.zeros(mt.rows, idx.length)
    var i = 0
    while (i < mt.rows) { var j = 0; while (j < idx.length) { out(i, j) = mt(i, idx(j)); j += 1 }; i += 1 }
    out
  }
  private def pad(b: Array[Double], idx: Array[Int], m: Int): Array[Double] = {
    val out = new Array[Double](m)
    var i = 0
    while (i < idx.length) { out(idx(i)) = b(i); i += 1 }
    out
  }
  private def add(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0; while (i < a.length) { out(i) = a(i) + b(i); i += 1 }; out
  }
}

/** Ordinary least squares over a backend — the paper's "Naive Approach"
  * linear model (Section 3.2) and the Linear/Linear-f rows of Figure 16.
  */
object LinearModel {
  final case class LinearFit(beta: Array[Double], sigma2: Double)

  def fit(bk: MLBackend, y: Array[Double], ridge: Double = 1e-8): LinearFit = {
    val beta = Mat.ridgeInverse(bk.gram, ridge).mv(bk.xtv(y))
    val pred = bk.xv(beta)
    var rss = 0.0
    var i = 0
    while (i < y.length) { val d = y(i) - pred(i); rss += d * d; i += 1 }
    LinearFit(beta, math.max(rss / math.max(y.length, 1), 1e-12))
  }

  def predict(bk: MLBackend, fit: LinearFit): Array[Double] = bk.xv(fit.beta)

  def logLikelihood(bk: MLBackend, y: Array[Double], fit: LinearFit): Double = {
    val pred = bk.xv(fit.beta)
    var rss = 0.0
    var i = 0
    while (i < y.length) { val d = y(i) - pred(i); rss += d * d; i += 1 }
    val n = y.length
    -0.5 * n * (math.log(2 * math.Pi * fit.sigma2) + rss / (n * fit.sigma2))
  }

  def aic(bk: MLBackend, y: Array[Double], fit: LinearFit): Double =
    2.0 * (bk.m + 1) - 2.0 * logLikelihood(bk, y, fit)
}
