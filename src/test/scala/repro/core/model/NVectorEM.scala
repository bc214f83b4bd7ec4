package repro.core.model

import repro.core.linalg.Mat

/** The multi-level EM as it ran before the sufficient-statistics rewrite:
  * Appendix D transcribed over n-vectors, with `xv`, `clusterXtv` and
  * `clusterXa` on every iteration. Kept as the reference the current
  * `MultiLevelEM.fit` is checked against.
  */
object NVectorEM {

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

    // Precomputed once: X^T X (+ inverse) and per-cluster Z^T Z grams.
    val gram = bk.gram
    val gramInv = Mat.ridgeInverse(gram, ridge)
    val clusterGrams = new Array[Mat](g)
    bk.foreachClusterGram((i, xtxi) => clusterGrams(i) = submatrix(xtxi, re))

    // Init: OLS beta; residual variance; Sigma = sigma2 * I.
    var beta = gramInv.mv(bk.xtv(y))
    var resid = sub(y, bk.xv(beta))
    var sigma2 = math.max(meanSq(resid), 1e-9)
    var sigma = Mat.eye(s) * sigma2
    var bs = Array.fill(g)(new Array[Double](s))

    // Scratch buffers reused across the per-cluster E-step: the loop runs
    // once per cluster per iteration, and allocating fresh matrices there
    // dominates EM runtime with tens of thousands of clusters.
    val wBuf = new Array[Double](s * s)
    val vBuf = new Array[Double](s * s)
    val muBuf = new Array[Double](s)
    val bbtBuf = new Array[Double](s * s)

    var it = 0
    while (it < iters) {
      // E-step (accumulates the M-step's Sigma and trace terms on the fly)
      val sigmaInv = Mat.ridgeInverse(sigma, ridge)
      val xtr = bk.clusterXtv(resid) // X_i^T (y_i - X_i beta); slice to Z columns
      val newBs = new Array[Array[Double]](g)
      val sigAcc = new Array[Double](s * s)
      var trAcc = 0.0
      var i = 0
      while (i < g) {
        val gi = clusterGrams(i).a
        // wBuf := G_i / sigma2 + Sigma^{-1} (+ escalating ridge on failure)
        val scale = {
          var t = 0.0; var d = 0
          while (d < s) { t += math.abs(gi(d * s + d) / sigma2 + sigmaInv(d, d)); d += 1 }
          math.max(t / s, 1.0)
        }
        var lambda = math.max(ridge, 1e-12) * scale
        var ok = false
        var attempt = 0
        while (!ok && attempt < 6) {
          var k = 0
          while (k < s * s) { wBuf(k) = gi(k) / sigma2 + sigmaInv.a(k); k += 1 }
          var d = 0
          while (d < s) { wBuf(d * s + d) += lambda; d += 1 }
          java.util.Arrays.fill(vBuf, 0.0)
          d = 0
          while (d < s) { vBuf(d * s + d) = 1.0; d += 1 }
          ok = Mat.eliminate(wBuf, vBuf, s)
          lambda *= 1e3
          attempt += 1
        }
        require(ok, "cluster covariance not invertible")
        // mu_i = V_i (X_i^T r_i) / sigma2
        var j = 0
        while (j < s) {
          var acc = 0.0
          var k = 0
          while (k < s) { acc += vBuf(j * s + k) * xtr(i)(re(k)); k += 1 }
          muBuf(j) = acc / sigma2
          j += 1
        }
        newBs(i) = muBuf.clone()
        // bbt_i = V_i + mu mu^T; fold into Sigma and trace accumulators
        j = 0
        while (j < s) {
          var k = 0
          while (k < s) {
            val bbt = vBuf(j * s + k) + muBuf(j) * muBuf(k)
            bbtBuf(j * s + k) = bbt
            sigAcc(j * s + k) += bbt
            k += 1
          }
          j += 1
        }
        // Tr(G_i bbt_i) = sum_{jk} G_i[j,k] * bbt[k,j] (both symmetric)
        var t = 0.0
        var k = 0
        while (k < s * s) { t += gi(k) * bbtBuf(k); k += 1 }
        trAcc += t
        i += 1
      }
      bs = newBs

      // M-step
      val zb = bk.clusterXa(bs.map(pad(_, re, m)))
      beta = gramInv.mv(bk.xtv(sub(y, zb)))
      sigma = new Mat(s, s, sigAcc.map(_ / g))
      resid = sub(y, bk.xv(beta)) // also the next E-step's residual
      val rr = Mat.dot(resid, resid)
      val rzb = Mat.dot(resid, zb)
      sigma2 = math.max((rr + trAcc - 2.0 * rzb) / bk.n, 1e-12)
      it += 1
    }
    MultiLevelFit(beta, sigma, sigma2, bs, re, iters)
  }

  // ------------------------------------------------------------- helpers
  private def submatrix(mt: Mat, idx: Array[Int]): Mat = {
    val s = idx.length
    val out = Mat.zeros(s, s)
    var i = 0
    while (i < s) { var j = 0; while (j < s) { out(i, j) = mt(idx(i), idx(j)); j += 1 }; i += 1 }
    out
  }
  private def pad(b: Array[Double], idx: Array[Int], m: Int): Array[Double] = {
    val out = new Array[Double](m)
    var i = 0
    while (i < idx.length) { out(idx(i)) = b(i); i += 1 }
    out
  }
  private def sub(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0; while (i < a.length) { out(i) = a(i) - b(i); i += 1 }; out
  }
  private def meanSq(a: Array[Double]): Double = {
    var s = 0.0; var i = 0; while (i < a.length) { s += a(i) * a(i); i += 1 }; s / math.max(a.length, 1)
  }
}
