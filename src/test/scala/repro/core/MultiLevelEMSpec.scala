package repro.core

import repro.SparkSpec
import repro.core.fmatrix.{FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.linalg.Mat
import repro.core.model._
import scala.util.Random

class MultiLevelEMSpec extends SparkSpec {

  /** time x geo(district -> village): clusters = (time, district). */
  private def fixture(nT: Int = 4, nD: Int = 3, nV: Int = 5, seed: Long = 0) = {
    val rng = new Random(seed)
    val time = HierRelation("time", Seq("t"), (0 until nT).map(t => Seq(f"t$t%02d")))
    val geo = HierRelation("geo", Seq("d", "v"),
      for { d <- 0 until nD; v <- 0 until nV } yield Seq(s"d$d", s"d$d-v$v"))
    val fmap = scala.collection.mutable.HashMap.empty[String, Double]
    def feat(v: String): Double = fmap.getOrElseUpdate(v, rng.nextGaussian())
    val cols = Vector(
      FeatureColumn.Intercept,
      FeatureColumn("ft", 0, 0, feat),
      FeatureColumn("fd", 1, 0, feat),
      FeatureColumn("fv", 1, 1, feat))
    new FactorizedMatrix(Vector(time, geo), cols)
  }

  private def synthY(fm: FactorizedMatrix, beta: Array[Double], reSd: Double, noiseSd: Double, seed: Long): Array[Double] = {
    val rng = new Random(seed)
    val y = fm.xv(beta)
    fm.clusterRanges.foreach { case (s, l) =>
      val b = rng.nextGaussian() * reSd // random intercept per cluster
      (s until s + l).foreach(i => y(i) += b + rng.nextGaussian() * noiseSd)
    }
    y
  }

  test("factorized and dense backends produce identical EM fits") {
    val fm = fixture()
    val y = synthY(fm, Array(1.0, 0.5, -0.3, 0.8), reSd = 0.5, noiseSd = 0.2, seed = 1)
    val f1 = MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 8)
    val f2 = MultiLevelEM.fit(new DenseBackend(fm.materialize, fm.clusterRanges), y, iters = 8)
    f1.beta.zip(f2.beta).foreach { case (a, b) => assert(math.abs(a - b) < 1e-6) }
    assert(math.abs(f1.sigma2 - f2.sigma2) < 1e-6)
    assert(f1.sigma.maxAbsDiff(f2.sigma) < 1e-6)
    val p1 = MultiLevelEM.predict(new FactorizedBackend(fm), f1)
    val p2 = MultiLevelEM.predict(new DenseBackend(fm.materialize, fm.clusterRanges), f2)
    p1.zip(p2).foreach { case (a, b) => assert(math.abs(a - b) < 1e-5) }
  }

  test("EM recovers fixed effects on clean data") {
    val fm = fixture(nT = 6, nD = 4, nV = 6, seed = 3)
    val beta = Array(2.0, 1.0, -0.5, 0.25)
    val y = synthY(fm, beta, reSd = 0.0, noiseSd = 0.01, seed = 2)
    val fit = MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 15)
    val pred = MultiLevelEM.predict(new FactorizedBackend(fm), fit)
    val rmse = math.sqrt(pred.zip(y).map { case (p, o) => (p - o) * (p - o) }.sum / y.length)
    assert(rmse < 0.05, s"rmse $rmse")
  }

  test("EM absorbs cluster-level shifts via random effects") {
    val fm = fixture(nT = 6, nD = 4, nV = 6, seed = 5)
    val y = synthY(fm, Array(1.0, 0.0, 0.0, 0.0), reSd = 2.0, noiseSd = 0.05, seed = 6)
    val bk = new FactorizedBackend(fm)
    val ml = MultiLevelEM.fit(bk, y, iters = 15)
    val mlPred = MultiLevelEM.predict(bk, ml)
    val ols = LinearModel.fit(bk, y)
    val olsPred = LinearModel.predict(bk, ols)
    def rmse(p: Array[Double]) = math.sqrt(p.zip(y).map { case (a, b) => (a - b) * (a - b) }.sum / y.length)
    assert(rmse(mlPred) < rmse(olsPred) / 3,
      s"multi-level ${rmse(mlPred)} should beat OLS ${rmse(olsPred)} on clustered data")
  }

  test("sigma2 estimate is in the right ballpark") {
    val fm = fixture(nT = 8, nD = 4, nV = 8, seed = 7)
    val y = synthY(fm, Array(1.0, 0.5, 0.5, 0.5), reSd = 1.0, noiseSd = 0.3, seed = 8)
    val fit = MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 20)
    assert(fit.sigma2 > 0.01 && fit.sigma2 < 1.0, s"sigma2 ${fit.sigma2}")
  }

  test("EM handles a single cluster without blowing up") {
    val h = HierRelation("g", Seq("g"), (0 until 50).map(i => Seq(f"g$i%02d")))
    val rng = new Random(9)
    val aux = (0 until 50).map(i => f"g$i%02d" -> rng.nextGaussian()).toMap
    val fm = new FactorizedMatrix(Vector(h),
      Vector(FeatureColumn.Intercept, FeatureColumn("aux", 0, 0, aux)))
    val y = fm.xv(Array(10.0, 2.0)).map(_ + rng.nextGaussian() * 0.1)
    val fit = MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 10)
    val pred = MultiLevelEM.predict(new FactorizedBackend(fm), fit)
    val rmse = math.sqrt(pred.zip(y).map { case (p, o) => (p - o) * (p - o) }.sum / y.length)
    assert(rmse < 0.5)
  }

  test("collinear features do not crash the fit (ridge)") {
    val h = HierRelation("g", Seq("g"), (0 until 10).map(i => Seq(s"g$i")))
    val fm = new FactorizedMatrix(Vector(h),
      Vector(FeatureColumn.Intercept, FeatureColumn("const", 0, 0, _ => 1.0)))
    val y = Array.fill(10)(3.0)
    val fit = MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 5)
    val pred = MultiLevelEM.predict(new FactorizedBackend(fm), fit)
    pred.foreach(p => assert(math.abs(p - 3.0) < 0.1))
  }

  test("logLikelihood is higher for the better-fitting model") {
    val fm = fixture(nT = 4, nD = 3, nV = 4, seed = 11)
    val y = synthY(fm, Array(1.0, 0.4, 0.2, -0.3), reSd = 0.8, noiseSd = 0.1, seed = 12)
    val bk = new FactorizedBackend(fm)
    val good = MultiLevelEM.fit(bk, y, iters = 15)
    val bad = good.copy(beta = good.beta.map(_ + 5.0))
    assert(MultiLevelEM.logLikelihood(bk, y, good) > MultiLevelEM.logLikelihood(bk, y, bad))
  }

  /** EM never lowers the marginal log-likelihood (relative slack 1e-9). */
  private def assertMonotone(bk: MLBackend, y: Array[Double], reCols: Option[Array[Int]]): Unit = {
    val ll = (0 to 15).map(k => MultiLevelEM.logLikelihood(bk, y, MultiLevelEM.fit(bk, y, iters = k, reCols = reCols)))
    ll.sliding(2).zipWithIndex.foreach { case (Seq(a, b), k) =>
      assert(b >= a - 1e-9 * math.abs(a), s"log-likelihood fell from $a to $b at iteration ${k + 1}")
    }
    assert(ll.last > ll.head)
  }

  test("EM log-likelihood never decreases") {
    val fm = fixture()
    val y = synthY(fm, Array(1.0, 0.5, -0.3, 0.8), reSd = 0.5, noiseSd = 0.2, seed = 1)
    assertMonotone(new FactorizedBackend(fm), y, None)
  }

  test("EM log-likelihood never decreases on sparse data with random intercepts") {
    val fm = fixture(nT = 5, nD = 4, nV = 6, seed = 21)
    val rng = new Random(22)
    // 85% of the groups are empty and take the default 0; the rest carry
    // a cluster-level shift.
    val y = synthY(fm, Array(4.0, 1.0, -0.5, 0.5), reSd = 2.0, noiseSd = 0.3, seed = 23)
      .map(v => if (rng.nextDouble() < 0.85) 0.0 else v)
    assertMonotone(new FactorizedBackend(fm), y, Some(Array(0)))
  }

  test("a well-conditioned fit needs no ridge escalation") {
    val fm = fixture()
    val y = synthY(fm, Array(1.0, 0.5, -0.3, 0.8), reSd = 0.5, noiseSd = 0.2, seed = 1)
    assert(MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 15).ridgeEscalations == 0)
  }

  test("LinearModel OLS matches the normal equations") {
    val fm = fixture(seed = 13)
    val rng = new Random(13)
    val y = Array.fill(fm.n)(rng.nextDouble())
    val fit = LinearModel.fit(new FactorizedBackend(fm), y, ridge = 0.0)
    val x = fm.materialize
    val direct = Mat.ridgeInverse(x.t * x, 0.0).mv(x.tmv(y))
    fit.beta.zip(direct).foreach { case (a, b) => assert(math.abs(a - b) < 1e-8) }
  }

  test("AIC penalizes the larger model on pure-noise data") {
    val h = HierRelation("g", Seq("g"), (0 until 40).map(i => Seq(f"g$i%02d")))
    val rng = new Random(17)
    val y = Array.fill(40)(rng.nextGaussian())
    val small = new FactorizedMatrix(Vector(h), Vector(FeatureColumn.Intercept))
    val aicSmall = LinearModel.aic(new FactorizedBackend(small), y,
      LinearModel.fit(new FactorizedBackend(small), y))
    val noise = (0 until 40).map(i => f"g$i%02d" -> rng.nextGaussian()).toMap
    val big = new FactorizedMatrix(Vector(h), Vector(
      FeatureColumn.Intercept,
      FeatureColumn("n1", 0, 0, noise),
      FeatureColumn("n2", 0, 0, v => noise(v) * noise(v))))
    val aicBig = LinearModel.aic(new FactorizedBackend(big), y,
      LinearModel.fit(new FactorizedBackend(big), y))
    assert(aicSmall < aicBig + 6.0) // noise features should not win decisively
  }
}
